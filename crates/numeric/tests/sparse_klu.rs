//! Differential and property tests pinning the KLU-class sparse path
//! ([`SymbolicLu::analyze`]) against the scalar reference oracle
//! ([`SymbolicLu::analyze_reference`]) and the typed failure contract.

use ind101_numeric::{
    CancelToken, Complex64, NumericError, ParallelConfig, SolveBudget, SparseLu, SymbolicLu,
    Triplets,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Differential agreement bound between the two sparse paths: both are
/// exact factorizations of the same matrix in different orders, so any
/// drift is pure roundoff.
const DIFF_TOL: f64 = 1e-10;

fn assert_close(label: &str, got: &[f64], want: &[f64]) {
    let scale = want.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g - w).abs() <= DIFF_TOL * scale,
            "{label}: unknown {i} diverged: klu {g} vs reference {w} (scale {scale})"
        );
    }
}

/// 2-D conductance grid with `nvsrc` voltage-source rows pinned to the
/// first nodes — the MNA shape (structurally zero branch diagonals)
/// that forces off-diagonal matching in the transversal.
fn grid_mna(w: usize, h: usize, nvsrc: usize) -> Triplets {
    let idx = |x: usize, y: usize| y * w + x;
    let nn = w * h;
    let n = nn + nvsrc;
    let mut t = Triplets::new(n, n);
    for y in 0..h {
        for x in 0..w {
            let i = idx(x, y);
            // real ground leak: keeps the grid well conditioned so the
            // two exact factorizations can agree to DIFF_TOL
            t.push(i, i, 0.05);
            if x + 1 < w {
                let g = 1.0 + 0.1 * (i as f64).sin();
                t.push(i, i, g);
                t.push(idx(x + 1, y), idx(x + 1, y), g);
                t.push(i, idx(x + 1, y), -g);
                t.push(idx(x + 1, y), i, -g);
            }
            if y + 1 < h {
                let g = 2.0 + 0.1 * (i as f64).cos();
                t.push(i, i, g);
                t.push(idx(x, y + 1), idx(x, y + 1), g);
                t.push(i, idx(x, y + 1), -g);
                t.push(idx(x, y + 1), i, -g);
            }
        }
    }
    for b in 0..nvsrc {
        let r = nn + b;
        let p = b * 3 % nn;
        t.push(r, p, 1.0);
        t.push(p, r, 1.0);
    }
    t
}

fn rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i as f64 * 0.43).sin() + 0.2).collect()
}

#[test]
fn klu_matches_reference_on_grid_mna() {
    for (w, h, nvsrc) in [(6, 5, 0), (9, 7, 4), (12, 10, 9)] {
        let csr = grid_mna(w, h, nvsrc).to_csr();
        let b = rhs(csr.nrows());
        let klu = SparseLu::factor(&csr).unwrap();
        let refe = SparseLu::factor_reference(&csr).unwrap();
        let label = format!("grid {w}x{h}+{nvsrc}");
        assert_close(
            &label,
            &klu.solve_refined(&csr, &b).unwrap().x,
            &refe.solve_refined(&csr, &b).unwrap().x,
        );
    }
}

#[test]
fn klu_matches_reference_on_complex_ladder() {
    let n = 60usize;
    let mut t = Triplets::new(n, n);
    for i in 0..n {
        t.push(i, i, Complex64::new(2.5, 0.8 + 0.01 * i as f64));
        if i + 1 < n {
            t.push(i, i + 1, Complex64::new(-1.0, -0.2));
            t.push(i + 1, i, Complex64::new(-1.0, -0.2));
        }
        if i + 7 < n {
            t.push(i, i + 7, Complex64::new(-0.3, 0.05));
            t.push(i + 7, i, Complex64::new(-0.3, 0.05));
        }
    }
    let csr = t.to_csr();
    let b: Vec<Complex64> = (0..n)
        .map(|i| Complex64::new((i as f64 * 0.3).cos(), (i as f64 * 0.7).sin()))
        .collect();
    let klu = SparseLu::factor(&csr).unwrap();
    let refe = SparseLu::factor_reference(&csr).unwrap();
    let xk = klu.solve(&b).unwrap();
    let xr = refe.solve(&b).unwrap();
    let scale = xr.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    for (i, (g, w)) in xk.iter().zip(&xr).enumerate() {
        assert!(
            (*g - *w).abs() <= DIFF_TOL * scale,
            "complex ladder: unknown {i} diverged"
        );
    }
}

#[test]
fn zero_pivot_defers_through_btf_blocks() {
    // A structurally present but numerically cancelling diagonal on a
    // voltage-source-style row: the KLU path must still factor via the
    // deferred ordering and agree with the reference oracle.
    let n = 12usize;
    let mut t = Triplets::new(n, n);
    for i in 0..n - 1 {
        t.push(i, i, 3.0);
        if i + 1 < n - 1 {
            t.push(i, i + 1, -1.0);
            t.push(i + 1, i, -1.0);
        }
    }
    let dead = n - 1;
    t.push(dead, dead, 5.0);
    t.push(dead, dead, -5.0); // coalesces to a structural zero value
    t.push(dead, 0, 1.0);
    t.push(0, dead, 1.0);
    let csr = t.to_csr();
    let b = rhs(n);
    let klu = SparseLu::factor(&csr).unwrap();
    let refe = SparseLu::factor_reference(&csr).unwrap();
    assert_close(
        "zero pivot",
        &klu.solve_refined(&csr, &b).unwrap().x,
        &refe.solve_refined(&csr, &b).unwrap().x,
    );
}

#[test]
fn structurally_singular_is_typed_at_analysis() {
    let mut t = Triplets::new(4, 4);
    // Row 3 and row 2 both only reach column 0: no zero-free diagonal
    // exists under any permutation.
    t.push(0, 0, 1.0);
    t.push(1, 1, 1.0);
    t.push(2, 0, 1.0);
    t.push(3, 0, 1.0);
    let err = SymbolicLu::analyze(&t.to_csr()).unwrap_err();
    assert!(
        matches!(err, NumericError::StructurallySingular { .. }),
        "expected StructurallySingular, got {err:?}"
    );
}

#[test]
fn thread_count_is_bit_identical_on_reducible_chain() {
    // 24 weakly coupled 5-blocks: enough BTF blocks for the parallel
    // partition to matter. Values must match bit-for-bit across thread
    // counts.
    let k = 24usize;
    let bs = 5usize;
    let n = k * bs;
    let mut t = Triplets::new(n, n);
    for blk in 0..k {
        let lo = blk * bs;
        for i in 0..bs {
            t.push(lo + i, lo + i, 4.0 + 0.01 * (lo + i) as f64);
            if i + 1 < bs {
                t.push(lo + i, lo + i + 1, -1.0);
                t.push(lo + i + 1, lo + i, -1.0);
            }
        }
        if blk + 1 < k {
            // one-way coupling keeps the blocks separate SCCs
            t.push(lo, lo + bs, 0.25);
        }
    }
    let csr = t.to_csr();
    let sym = Arc::new(SymbolicLu::analyze(&csr).unwrap());
    assert!(sym.stats().num_blocks >= k, "expected ≥{k} BTF blocks");
    let b = rhs(n);
    let budget = SolveBudget::unlimited();
    let serial = SparseLu::factor_with_budget(
        Arc::clone(&sym),
        &csr,
        &budget,
        &ParallelConfig::serial(),
    )
    .unwrap();
    let threaded = SparseLu::factor_with_budget(
        Arc::clone(&sym),
        &csr,
        &budget,
        &ParallelConfig::with_threads(4),
    )
    .unwrap();
    let xs = serial.solve(&b).unwrap();
    let xt = threaded.solve(&b).unwrap();
    assert_eq!(xs, xt, "thread count changed solve results");
}

#[test]
fn pre_cancelled_budget_is_reported_as_cancelled() {
    let csr = grid_mna(8, 8, 3).to_csr();
    let sym = Arc::new(SymbolicLu::analyze(&csr).unwrap());
    let token = CancelToken::new();
    token.cancel();
    let budget = SolveBudget::unlimited().with_cancel(token);
    let err = SparseLu::factor_with_budget(sym, &csr, &budget, &ParallelConfig::serial())
        .unwrap_err();
    assert!(
        matches!(err, NumericError::Cancelled),
        "expected Cancelled, got {err:?}"
    );
}

#[test]
fn stats_report_block_structure_on_reducible_system() {
    let csr = {
        let k = 6usize;
        let bs = 4usize;
        let n = k * bs;
        let mut t = Triplets::new(n, n);
        for blk in 0..k {
            let lo = blk * bs;
            for i in 0..bs {
                t.push(lo + i, lo + i, 3.0);
                if i + 1 < bs {
                    t.push(lo + i, lo + i + 1, -1.0);
                    t.push(lo + i + 1, lo + i, -1.0);
                }
            }
            if blk + 1 < k {
                t.push(lo, lo + bs, 0.5);
            }
        }
        t.to_csr()
    };
    let st = SparseLu::factor(&csr).unwrap().stats();
    assert_eq!(st.num_blocks, 6);
    assert_eq!(st.max_block_dim, 4);
    assert!(st.num_supernodes >= 6);
    assert!(st.max_supernode_width >= 1);
    assert!(st.factor_nnz > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn random_block_triangular_agrees_with_reference(case in (2usize..8, 1u64..u64::MAX)) {
        // A block-triangular system of `k` diagonal blocks with
        // dimensions in `1..=6` (singletons included), one-way
        // inter-block coupling, scrambled by a deterministic
        // relabeling so the BTF has real work to do.
        let (k, seed) = case;
        let mut s = seed | 1;
        let mut dims = Vec::with_capacity(k);
        for _ in 0..k {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            dims.push(1 + ((s >> 33) as usize % 6));
        }
        let n: usize = dims.iter().sum();
        // deterministic scramble of labels from the seed
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (s >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        let mut t = Triplets::new(n, n);
        let mut lo = 0usize;
        for (bi, &d) in dims.iter().enumerate() {
            for i in 0..d {
                t.push(order[lo + i], order[lo + i], 4.0 + 0.1 * (lo + i) as f64);
                if i + 1 < d {
                    t.push(order[lo + i], order[lo + i + 1], -1.0);
                    t.push(order[lo + i + 1], order[lo + i], -1.0);
                }
            }
            if bi + 1 < dims.len() {
                // one-way coupling to the next block
                t.push(order[lo], order[lo + d], 0.5);
            }
            lo += d;
        }
        let csr = t.to_csr();
        let b = rhs(n);
        let klu = SparseLu::factor(&csr).unwrap();
        let refe = SparseLu::factor_reference(&csr).unwrap();
        prop_assert!(klu.stats().num_blocks >= dims.len());
        let xk = klu.solve(&b).unwrap();
        let xr = refe.solve(&b).unwrap();
        let scale = xr.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for (g, w) in xk.iter().zip(&xr) {
            prop_assert!((g - w).abs() <= DIFF_TOL * scale);
        }
    }
}
