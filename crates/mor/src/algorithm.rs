//! The PRIMA block-Arnoldi reduction.
//!
//! Given the MNA descriptor system `C·ẋ + G·x = B·u`, `y = Eᵀ·x`, PRIMA
//! projects onto the block Krylov subspace
//! `colspan{R, A·R, A²·R, …}` with `A = (G + s₀C)⁻¹C` and
//! `R = (G + s₀C)⁻¹B`, using a congruence transform `Ĝ = XᵀGX`,
//! `Ĉ = XᵀCX` that preserves passivity of RLC systems.

use crate::reduced::ReducedModel;
use ind101_circuit::MnaSystem;
use ind101_numeric::{mgs_orthonormalize, orthonormalize_against, Matrix, NumericError};

/// PRIMA options.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PrimaOptions {
    /// Expansion point `s₀`, rad/s. The paper's testcases live around a
    /// gigahertz, so the default expands there.
    pub s0: f64,
    /// Maximum reduced order (columns of the projection basis).
    pub order: usize,
}

impl Default for PrimaOptions {
    fn default() -> Self {
        Self {
            s0: 2.0 * std::f64::consts::PI * 1e9,
            order: 24,
        }
    }
}

/// Reduces the full system, exciting **all** independent sources.
///
/// `outputs` are unknown indices (use [`MnaSystem::node_index`]) whose
/// voltages the reduced model must reproduce.
///
/// # Errors
///
/// Fails if `G + s₀C` is singular.
pub fn prima(
    sys: &MnaSystem,
    outputs: &[usize],
    opts: &PrimaOptions,
) -> Result<ReducedModel, NumericError> {
    let inputs: Vec<usize> = (0..sys.num_inputs()).collect();
    prima_active_ports(sys, &inputs, outputs, opts)
}

/// Reduces the full system, generating Krylov directions only from the
/// listed `active_inputs` (the combined technique of the paper's
/// reference \[4\]: excitations at active ports, not at passive sinks).
///
/// All inputs remain represented in the reduced `B̂` so the model can be
/// driven by any of them; only the *subspace* is restricted, which is
/// what cuts the Arnoldi cost when most ports are quiet observers.
///
/// # Errors
///
/// Fails if `G + s₀C` is singular or no Krylov directions survive.
pub fn prima_active_ports(
    sys: &MnaSystem,
    active_inputs: &[usize],
    outputs: &[usize],
    opts: &PrimaOptions,
) -> Result<ReducedModel, NumericError> {
    let n = sys.n;
    let g = sys.g.to_dense();
    let c = sys.c.to_dense();
    let a = g.add_scaled(opts.s0, &c)?;
    let fac = a.lu()?;

    // Full input matrix (for B̂) and the active subset (for Krylov).
    let n_in = sys.num_inputs();
    let mut b_full = Matrix::zeros(n, n_in);
    for (col, entries) in sys.b_cols.iter().enumerate() {
        for &(row, v) in entries {
            b_full[(row, col)] += v;
        }
    }
    let mut b_active = Matrix::zeros(n, active_inputs.len());
    for (k, &col) in active_inputs.iter().enumerate() {
        for &(row, v) in &sys.b_cols[col] {
            b_active[(row, k)] += v;
        }
    }

    // Block Arnoldi.
    let r = fac.solve_matrix(&b_active)?;
    let mut x = mgs_orthonormalize(&r);
    if x.ncols() == 0 {
        return Err(NumericError::Singular { pivot: 0 });
    }
    let mut last = x.clone();
    while x.ncols() < opts.order.min(n) {
        let cv = c.matmul(&last)?;
        let next = fac.solve_matrix(&cv)?;
        let add = orthonormalize_against(&x, &next);
        if add.ncols() == 0 {
            break; // Krylov space exhausted
        }
        // Concatenate columns (respect the order cap).
        let keep = (opts.order.min(n) - x.ncols()).min(add.ncols());
        let mut nx = Matrix::zeros(n, x.ncols() + keep);
        for j in 0..x.ncols() {
            nx.set_col(j, &x.col(j));
        }
        for j in 0..keep {
            nx.set_col(x.ncols() + j, &add.col(j));
        }
        x = nx;
        last = add;
    }

    // Congruence projection.
    let g_r = g.congruence(&x)?;
    let c_r = c.congruence(&x)?;
    let b_r = x.transpose().matmul(&b_full)?;
    let mut e = Matrix::zeros(n, outputs.len());
    for (j, &row) in outputs.iter().enumerate() {
        e[(row, j)] = 1.0;
    }
    let l_r = x.transpose().matmul(&e)?;

    Ok(ReducedModel::new(g_r, c_r, b_r, l_r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ind101_circuit::{Circuit, SourceWave};

    fn rc_ladder(stages: usize) -> (Circuit, ind101_circuit::NodeId) {
        let mut c = Circuit::new();
        let inp = c.node("in");
        c.vsrc(inp, Circuit::GND, SourceWave::step(0.0, 1.0, 0.0, 1e-12));
        let mut prev = inp;
        for k in 0..stages {
            let n = c.node(format!("n{k}"));
            c.resistor(prev, n, 20.0);
            c.capacitor(n, Circuit::GND, 20e-15);
            prev = n;
        }
        (c, prev)
    }

    #[test]
    fn reduction_shrinks_order() {
        let (c, out) = rc_ladder(40);
        let sys = c.mna_system().unwrap();
        let rm = prima(&sys, &[sys.node_index(out).unwrap()], &PrimaOptions::default()).unwrap();
        assert!(rm.order() <= 24);
        assert!(rm.order() < sys.n);
    }

    #[test]
    fn dc_gain_is_preserved() {
        // Moment matching at s0 implies near-exact low-frequency gain.
        let (c, out) = rc_ladder(30);
        let sys = c.mna_system().unwrap();
        let rm = prima(&sys, &[sys.node_index(out).unwrap()], &PrimaOptions::default()).unwrap();
        // DC: y = Lᵀ G⁻¹ B ≈ 1 (resistive ladder passes DC unloaded).
        let gain = rm.dc_gain().unwrap();
        assert!((gain[(0, 0)] - 1.0).abs() < 1e-3, "gain {}", gain[(0, 0)]);
    }

    #[test]
    fn reduced_matrices_preserve_passivity_structure() {
        use ind101_numeric::{extreme_eigenvalues, Matrix};
        let (c, out) = rc_ladder(25);
        let sys = c.mna_system().unwrap();
        let rm = prima(&sys, &[sys.node_index(out).unwrap()], &PrimaOptions::default()).unwrap();
        // Congruence preserves Ĉ = ĈT ⪰ 0 and Ĝ + Ĝᵀ ⪰ 0 — the PRIMA
        // passivity invariants.
        assert!(rm.c().symmetry_defect() < 1e-12 * rm.c().max_abs().max(1.0));
        let q = rm.order();
        let gsym = Matrix::from_fn(q, q, |i, j| 0.5 * (rm.g()[(i, j)] + rm.g()[(j, i)]));
        let (g_min, _) = extreme_eigenvalues(&gsym).unwrap();
        assert!(g_min > -1e-9 * gsym.max_abs(), "G+Gᵀ min eig {g_min}");
        let (c_min, _) = extreme_eigenvalues(rm.c()).unwrap();
        assert!(c_min > -1e-12 * rm.c().max_abs().max(1e-30));
    }

    #[test]
    fn active_port_variant_matches_when_driven_by_active_port() {
        let (mut c, out) = rc_ladder(30);
        // Add a second, quiet source at the output side (a passive sink
        // modeled as a zero-current probe port).
        let probe = c.node("probe");
        c.resistor(out, probe, 1.0);
        c.isrc(Circuit::GND, probe, SourceWave::dc(0.0));
        let sys = c.mna_system().unwrap();
        let outputs = vec![sys.node_index(out).unwrap()];
        let full = prima(&sys, &outputs, &PrimaOptions::default()).unwrap();
        let active = prima_active_ports(&sys, &[0], &outputs, &PrimaOptions::default()).unwrap();
        // Drive input 0 at 1 GHz and compare transfer functions.
        let f = vec![1e9];
        let hf = full.ac(&f).unwrap();
        let ha = active.ac(&f).unwrap();
        let d = (hf[0][(0, 0)] - ha[0][(0, 0)]).abs();
        assert!(d < 1e-3, "transfer mismatch {d}");
    }

    #[test]
    fn krylov_exhaustion_terminates() {
        // Tiny circuit: requested order exceeds state dimension.
        let mut c = Circuit::new();
        let a = c.node("a");
        c.isrc(Circuit::GND, a, SourceWave::dc(1.0));
        c.resistor(a, Circuit::GND, 1.0);
        c.capacitor(a, Circuit::GND, 1e-12);
        let sys = c.mna_system().unwrap();
        let rm = prima(
            &sys,
            &[sys.node_index(a).unwrap()],
            &PrimaOptions {
                order: 50,
                ..PrimaOptions::default()
            },
        )
        .unwrap();
        assert!(rm.order() <= sys.n);
    }
}
