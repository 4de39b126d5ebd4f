//! Public export of the linear MNA system `C·ẋ + G·x = B·u`.
//!
//! Model-order reduction (PRIMA, the paper's reference \[20\]) operates on
//! the MNA matrices of the *linear* partition of the circuit. This
//! module exposes them in the same unknown ordering the simulator uses:
//! node voltages, then voltage-source currents, then inductive branch
//! currents.

use crate::elements::Element;
use crate::error::CircuitError;
use crate::mna::{assemble_static, MnaLayout, Scheme};
use crate::netlist::{Circuit, NodeId};
use crate::Result;
use ind101_numeric::Triplets;

/// The linear MNA descriptor system of a circuit, in the
/// passivity-friendly form PRIMA requires: auxiliary (voltage-source
/// and inductive-branch) equations are **negated**, so that
/// `C = diag(C_caps, M)` is symmetric positive semidefinite and
/// `G + Gᵀ ⪰ 0`. The time-domain system is `C·ẋ + G·x = B·u` with `u`
/// the vector of independent sources (voltage sources first, then
/// current sources, in insertion order).
#[derive(Clone, Debug)]
pub struct MnaSystem {
    /// Conductance/incidence matrix `G`.
    pub g: Triplets,
    /// Storage matrix `C`.
    pub c: Triplets,
    /// Input incidence matrix `B` as columns of `(row, value)` pairs —
    /// one column per independent source.
    pub b_cols: Vec<Vec<(usize, f64)>>,
    /// Total number of unknowns.
    pub n: usize,
    /// Number of node-voltage unknowns.
    pub n_nodes: usize,
    layout: MnaLayout,
}

impl MnaSystem {
    /// Unknown index of a node voltage (`None` for ground).
    pub fn node_index(&self, node: NodeId) -> Option<usize> {
        self.layout.node(node)
    }

    /// Unknown index of the current through inductor system `sys`,
    /// branch `branch`.
    pub fn inductor_index(&self, sys: usize, branch: usize) -> usize {
        self.layout.ind_offsets[sys] + branch
    }

    /// Number of independent sources (columns of `B`).
    pub fn num_inputs(&self) -> usize {
        self.b_cols.len()
    }
}

impl Circuit {
    /// Extracts the linear MNA system.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidElement`] if the circuit contains
    /// nonlinear devices — reduce the linear partition only, as the
    /// paper's combined technique does.
    pub fn mna_system(&self) -> Result<MnaSystem> {
        if self.is_nonlinear() {
            return Err(CircuitError::InvalidElement {
                what: "cannot export MNA system of a nonlinear circuit".to_owned(),
            });
        }
        let layout = MnaLayout::build(self);
        // G: resistors + incidence, no capacitor companions. Scheme::Dc
        // gives the symmetric simulator form; we then negate the
        // auxiliary rows (everything from the first vsrc current on) to
        // reach the PRIMA form with G + Gᵀ ⪰ 0. The tiny series
        // resistance on branch diagonals becomes +R_ε ≥ 0 — harmless
        // regularization that keeps G + s₀·C nonsingular.
        let g_sym = assemble_static(self, &layout, Scheme::Dc, 0.0);
        let mut g = Triplets::new(layout.n, layout.n);
        for &(i, j, v) in g_sym.entries() {
            if i >= layout.n_nodes {
                g.push(i, j, -v);
            } else {
                g.push(i, j, v);
            }
        }

        // C: capacitor stamps in the node block, −M in the branch block.
        let mut c = Triplets::new(layout.n, layout.n);
        for e in self.elements() {
            if let Element::Capacitor { a, b, farads } = e {
                match (layout.node(*a), layout.node(*b)) {
                    (Some(i), Some(j)) => {
                        c.push(i, i, *farads);
                        c.push(j, j, *farads);
                        c.push(i, j, -*farads);
                        c.push(j, i, -*farads);
                    }
                    (Some(i), None) | (None, Some(i)) => c.push(i, i, *farads),
                    (None, None) => {}
                }
            }
        }
        for (s, sys) in self.inductor_systems().iter().enumerate() {
            let off = layout.ind_offsets[s];
            for j in 0..sys.len() {
                for jj in 0..sys.len() {
                    let m = sys.m[(j, jj)];
                    if m != 0.0 {
                        // Negated branch equation ⇒ +M: C stays PSD.
                        c.push(off + j, off + jj, m);
                    }
                }
            }
        }

        // B: one column per source.
        let mut b_cols = Vec::new();
        let mut vseq = 0usize;
        for e in self.elements() {
            match e {
                Element::Vsrc { .. } => {
                    // Negated source row: −(v_p − v_m) + … = −u.
                    b_cols.push(vec![(layout.vsrc_rows[vseq], -1.0)]);
                    vseq += 1;
                }
                Element::Isrc { from, into, .. } => {
                    let mut col = Vec::new();
                    if let Some(i) = layout.node(*into) {
                        col.push((i, 1.0));
                    }
                    if let Some(i) = layout.node(*from) {
                        col.push((i, -1.0));
                    }
                    b_cols.push(col);
                }
                _ => {}
            }
        }

        Ok(MnaSystem {
            g,
            c,
            b_cols,
            n: layout.n,
            n_nodes: layout.n_nodes,
            layout,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::SourceWave;
    use crate::netlist::InverterParams;

    #[test]
    fn rc_system_matrices() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsrc(a, Circuit::GND, SourceWave::dc(1.0));
        ckt.resistor(a, b, 2.0);
        ckt.capacitor(b, Circuit::GND, 3e-12);
        let sys = ckt.mna_system().unwrap();
        assert_eq!(sys.n, 3); // 2 nodes + 1 vsrc current
        assert_eq!(sys.n_nodes, 2);
        assert_eq!(sys.num_inputs(), 1);
        let g = sys.g.to_dense();
        let c = sys.c.to_dense();
        let ib = sys.node_index(b).unwrap();
        assert!((g[(ib, ib)] - 0.5).abs() < 1e-9);
        assert!((c[(ib, ib)] - 3e-12).abs() < 1e-24);
    }

    #[test]
    fn inductor_enters_c_matrix_positive() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.inductor(a, Circuit::GND, 2e-9);
        ckt.resistor(a, Circuit::GND, 1.0);
        let sys = ckt.mna_system().unwrap();
        let il = sys.inductor_index(0, 0);
        let c = sys.c.to_dense();
        assert!((c[(il, il)] - 2e-9).abs() < 1e-20);
        let g = sys.g.to_dense();
        // Negated branch row, untouched KCL column.
        assert_eq!(g[(il, sys.node_index(a).unwrap())], -1.0);
        assert_eq!(g[(sys.node_index(a).unwrap(), il)], 1.0);
        // PRIMA precondition: C PSD, G + Gᵀ PSD.
        assert!(
            c.is_positive_definite() || {
                // PSD with zero rows is fine; check via eigenvalues.
                ind101_numeric::extreme_eigenvalues(&c).unwrap().0 >= -1e-30
            }
        );
    }

    #[test]
    fn nonlinear_circuit_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.inverter(a, b, a, Circuit::GND, InverterParams::default());
        assert!(ckt.mna_system().is_err());
    }

    #[test]
    fn isrc_column_has_two_entries() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.resistor(a, b, 1.0);
        ckt.resistor(b, Circuit::GND, 1.0);
        ckt.isrc(a, b, SourceWave::dc(1e-3));
        let sys = ckt.mna_system().unwrap();
        assert_eq!(sys.b_cols[0].len(), 2);
    }
}
