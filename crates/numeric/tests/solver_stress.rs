//! Larger-scale stress tests for the solver stack — the sizes the PEEC
//! flows actually produce.

use ind101_numeric::{
    extreme_eigenvalues, jacobi_eigenvectors, Complex64, Matrix, SparseLu, Triplets,
};

/// 2-D grid Laplacian + identity: the structural twin of a power-grid
/// conductance matrix.
fn grid_matrix(w: usize, h: usize) -> Triplets {
    let idx = |x: usize, y: usize| y * w + x;
    let n = w * h;
    let mut t = Triplets::new(n, n);
    for y in 0..h {
        for x in 0..w {
            let i = idx(x, y);
            t.push(i, i, 4.2);
            if x + 1 < w {
                t.push(i, idx(x + 1, y), -1.0);
                t.push(idx(x + 1, y), i, -1.0);
            }
            if y + 1 < h {
                t.push(i, idx(x, y + 1), -1.0);
                t.push(idx(x, y + 1), i, -1.0);
            }
        }
    }
    t
}

#[test]
fn sparse_solver_handles_thousand_node_grid() {
    let (w, h) = (40usize, 30usize);
    let t = grid_matrix(w, h);
    let n = w * h;
    let csr = t.to_csr();
    let lu = SparseLu::factor(&csr).unwrap();
    let b: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
    let x = lu.solve_refined(&csr, &b).unwrap().into_met().unwrap();
    // Residual against the original operator.
    let r = csr.matvec(&x).unwrap();
    let resid = r
        .iter()
        .zip(&b)
        .map(|(u, v)| (u - v).abs())
        .fold(0.0f64, f64::max);
    assert!(resid < 1e-9, "residual {resid}");
}

#[test]
fn dense_lu_and_cholesky_agree_on_spd_system() {
    // Moderately large SPD system (grid Laplacian is SPD).
    let t = grid_matrix(12, 12);
    let a = t.to_dense();
    let b: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 0.37).sin()).collect();
    let x_lu = a.lu().unwrap().solve(&b).unwrap();
    let x_ch = a.cholesky().unwrap().solve(&b).unwrap();
    for (u, v) in x_lu.iter().zip(&x_ch) {
        assert!((u - v).abs() < 1e-9);
    }
}

#[test]
fn extreme_eigenvalues_handle_clustered_spectrum() {
    // Nearly-degenerate eigenvalues (a hard case for rotations).
    let n = 20;
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        a[(i, i)] = 1.0 + 1e-8 * i as f64;
        if i + 1 < n {
            a[(i, i + 1)] = 1e-9;
            a[(i + 1, i)] = 1e-9;
        }
    }
    let (lo, hi) = extreme_eigenvalues(&a).unwrap();
    let oracle = jacobi_eigenvectors(&a).unwrap().values;
    assert!((lo - oracle[0]).abs() < 1e-14, "{lo} vs {}", oracle[0]);
    assert!(
        (hi - oracle[n - 1]).abs() < 1e-14,
        "{hi} vs {}",
        oracle[n - 1]
    );
}

#[test]
fn complex_sparse_ac_like_system() {
    // G + jωC pattern at three decades — the AC sweep's inner kernel.
    let n = 500;
    for &omega in &[1e6f64, 1e9, 1e12] {
        let mut t: Triplets<Complex64> = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, Complex64::new(2.0, omega * 1e-12));
            if i + 1 < n {
                t.push(i, i + 1, Complex64::new(-1.0, 0.0));
                t.push(i + 1, i, Complex64::new(-1.0, 0.0));
            }
        }
        let csr = t.to_csr();
        let lu = SparseLu::factor(&csr).unwrap();
        let b: Vec<Complex64> = (0..n).map(|i| Complex64::new(1.0, i as f64 * 1e-3)).collect();
        let x = lu.solve_refined(&csr, &b).unwrap().into_met().unwrap();
        // Residual.
        let dense = t.to_dense();
        let r = dense.matvec(&x).unwrap();
        let resid = r
            .iter()
            .zip(&b)
            .map(|(u, v)| (*u - *v).abs())
            .fold(0.0f64, f64::max);
        assert!(resid < 1e-9, "omega {omega:e}: residual {resid}");
    }
}

#[test]
fn matrix_inverse_of_ill_conditioned_partial_l_like_system() {
    // Log-decaying off-diagonals like a partial-inductance matrix; the
    // K-matrix method needs its inverse to stay accurate.
    let n = 60;
    let a = Matrix::from_fn(n, n, |i, j| {
        if i == j {
            3.0
        } else {
            1.0 / (1.0 + ((i as f64 - j as f64).abs()).ln_1p())
        }
    });
    let sym = Matrix::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
    let inv = sym.inverse().unwrap();
    let prod = sym.matmul(&inv).unwrap();
    let id = Matrix::identity(n);
    assert!((&prod - &id).max_abs() < 1e-8);
}
