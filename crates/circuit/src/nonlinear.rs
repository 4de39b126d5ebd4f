//! Fast Newton iteration via Sherman–Morrison–Woodbury updates.
//!
//! A level-1 MOSFET contributes a **rank-one** update to the MNA
//! Jacobian: its stamp is `(e_d − e_s) · [gds·e_dᵀ + gm·e_gᵀ −
//! (gm+gds)·e_sᵀ]`. With `m` transistors the Jacobian is
//! `J(x) = A₀ + U·W(x)` where `A₀` is the (constant) linear matrix,
//! `U` is a fixed `n × m` incidence and `W(x)` holds the bias-dependent
//! conductances. Factoring `A₀` **once** and applying the Woodbury
//! identity per Newton iteration means the transistors never force a
//! refactor — the difference between hours and seconds for the paper's
//! Table 1 testcases, where a handful of gates drive thousands of RLC
//! elements.
//!
//! The Norton-corrected right-hand side is `rhs − U·ieq`, and
//! `A₀⁻¹·U = Z` is stored, so the linearization never reaches the base
//! solver. With `S = I + W·Z` and `a = S⁻¹·(W·y₀ + ieq)` — the
//! linearized device currents at the new iterate — the update is
//! `x = y₀ − Z·a`. Cost model:
//!
//! * **build** ([`WoodburySolver::new`]) — `m` base solves for the
//!   columns of `Z`, on a base the caller has already factored (with the
//!   `SolvePlan` its analysis keeps, so only the numeric phase runs);
//! * **per right-hand side** (each transient time point, each DC Newton
//!   run) — one base solve `y₀ = A₀⁻¹·rhs`
//!   ([`WoodburySolver::base_solve`]);
//! * **per Newton iteration** ([`WoodburySolver::newton_update`]) — `m`
//!   device linearizations, `S` in O(m²) (a row of `W` has at most three
//!   entries), its LU in O(m³), and `x = y₀ − Z·a` in O(n·m). No base
//!   solve.
//!
//! With no devices the solver is its base solve, so linear circuits step
//! through the same type.

use crate::elements::{MosLinearization, Mosfet};
use crate::mna::MnaLayout;
use crate::solver::Solver;
use crate::Result;
use ind101_numeric::{axpy, Matrix};

/// Per-device unknown indices (`None` = terminal at ground).
#[derive(Clone, Copy, Debug)]
struct DeviceIdx {
    d: Option<usize>,
    g: Option<usize>,
    s: Option<usize>,
}

impl DeviceIdx {
    /// Row of `W` applied to a vector:
    /// `gds·v[d] + gm·v[g] − (gm+gds)·v[s]`.
    fn w_dot(&self, lin: &MosLinearization, v: &[f64]) -> f64 {
        let mut acc = 0.0;
        if let Some(d) = self.d {
            acc += lin.gds * v[d];
        }
        if let Some(g) = self.g {
            acc += lin.gm * v[g];
        }
        if let Some(s) = self.s {
            acc -= (lin.gm + lin.gds) * v[s];
        }
        acc
    }
}

/// A factored linear system `A₀` plus rank-m MOSFET updates.
#[derive(Debug)]
pub(crate) struct WoodburySolver {
    base: Solver<f64>,
    /// Z = A₀⁻¹·U, one column per device (zero columns for devices with
    /// both drain and source grounded).
    z: Vec<Vec<f64>>,
    idx: Vec<DeviceIdx>,
}

impl WoodburySolver {
    /// Prepares the update columns `Z = A₀⁻¹·U` on `base`, the factored
    /// static matrix `A₀` (with refinement already chosen: the rescue
    /// rungs and the adaptive transient enable it, the default paths
    /// stay reproducible without it).
    pub(crate) fn new(base: Solver<f64>, layout: &MnaLayout, mosfets: &[Mosfet]) -> Result<Self> {
        let n = layout.n;
        let idx: Vec<DeviceIdx> = mosfets
            .iter()
            .map(|m| DeviceIdx {
                d: layout.node(m.d),
                g: layout.node(m.g),
                s: layout.node(m.s),
            })
            .collect();
        let mut z = Vec::with_capacity(mosfets.len());
        for di in &idx {
            let mut u = vec![0.0; n];
            if let Some(d) = di.d {
                u[d] += 1.0;
            }
            if let Some(s) = di.s {
                u[s] -= 1.0;
            }
            z.push(base.solve(&u)?);
        }
        Ok(Self { base, z, idx })
    }

    /// `y₀ = A₀⁻¹·rhs`: the one base solve every Newton iteration
    /// against this right-hand side shares.
    pub(crate) fn base_solve(&self, rhs: &[f64]) -> Result<Vec<f64>> {
        self.base.solve(rhs)
    }

    /// One Newton update: solves `J(x_lin)·x = rhs + Norton(x_lin)`,
    /// where the Jacobian and Norton currents are linearized at `x_lin`
    /// and `y0` is [`WoodburySolver::base_solve`] of `rhs`.
    ///
    /// Agrees with stamping the device Jacobian into the matrix and
    /// refactoring up to rounding. Returns `None` when `S = I + W·Z`
    /// does not factor — by the matrix determinant lemma it is singular
    /// exactly when the Jacobian at `x_lin` is — or when the update has
    /// a non-finite entry (a NaN or infinite source or iterate), which
    /// callers count as a failed Newton iteration.
    pub(crate) fn newton_update(
        &self,
        mosfets: &[Mosfet],
        x_lin: &[f64],
        y0: &[f64],
    ) -> Option<Vec<f64>> {
        #[cfg(feature = "solver-faults")]
        if crate::faults::take_singular_jacobian() {
            return None;
        }
        let m = mosfets.len();
        let v_at = |o: Option<usize>| o.map_or(0.0, |i| x_lin[i]);
        // S = I + W·Z (m×m) and t = W·y₀ + ieq.
        let mut s = Matrix::zeros(m, m);
        let mut t = vec![0.0; m];
        for (i, (dev, di)) in mosfets.iter().zip(&self.idx).enumerate() {
            let (vd, vg, vs) = (v_at(di.d), v_at(di.g), v_at(di.s));
            let lin = dev.linearize(vd, vg, vs);
            let ieq = lin.ids - lin.gm * (vg - vs) - lin.gds * (vd - vs);
            for (j, zj) in self.z.iter().enumerate() {
                s[(i, j)] = di.w_dot(&lin, zj) + if i == j { 1.0 } else { 0.0 };
            }
            t[i] = di.w_dot(&lin, y0) + ieq;
        }
        let a = s.lu().and_then(|f| f.solve(&t)).ok()?;
        let mut x = y0.to_vec();
        for (aj, zj) in a.iter().zip(&self.z) {
            axpy(-aj, zj, &mut x);
        }
        x.iter().all(|v| v.is_finite()).then_some(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::MosPolarity;
    use crate::mna::{assemble_static, stamp_mosfet, Scheme};
    use crate::netlist::{Circuit, InverterParams};
    use crate::solver::SolverBackend;
    use crate::waveform::SourceWave;

    /// Three inverters in a chain, each stage's output reaching the next
    /// gate through a 20-node RC ladder, plus an NMOS with its source at
    /// ground loading the last ladder; large enough (above
    /// `SMALL_DENSE`) for the sparse rung.
    fn inverter_chain() -> Circuit {
        const RUNGS: usize = 20;
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let inp = c.node("in");
        c.vsrc(vdd, Circuit::GND, SourceWave::dc(1.8));
        c.vsrc(inp, Circuit::GND, SourceWave::dc(0.7));
        let mut gate = inp;
        let mut first_mid = None;
        for stage in 0..3 {
            let out = c.node(format!("s{stage}_0"));
            c.inverter(gate, out, vdd, Circuit::GND, InverterParams::default());
            let mut prev = out;
            c.capacitor(out, Circuit::GND, 5e-15);
            for k in 1..RUNGS {
                let n = c.node(format!("s{stage}_{k}"));
                c.resistor(prev, n, 50.0 + k as f64);
                c.capacitor(n, Circuit::GND, 5e-15);
                if stage == 0 && k == RUNGS / 2 {
                    first_mid = Some(n);
                }
                prev = n;
            }
            gate = prev;
        }
        c.mosfet(Mosfet {
            d: gate,
            g: first_mid.expect("ladder has a midpoint"),
            s: Circuit::GND,
            polarity: MosPolarity::Nmos,
            beta: 1e-3,
            vt: 0.5,
            lambda: 0.05,
        });
        c
    }

    /// The prepared Woodbury update must equal the stamp-and-refactor
    /// iterate on every base-solver rung, at several linearization
    /// points covering cutoff, triode and saturation.
    #[test]
    fn woodbury_matches_direct_stamping() {
        let c = inverter_chain();
        let layout = MnaLayout::build(&c);
        assert!(layout.n > crate::solver::SMALL_DENSE, "n = {}", layout.n);
        let static_t = assemble_static(&c, &layout, Scheme::Be, 1e-12);
        let mosfets = c.mosfets();
        assert_eq!(mosfets.len(), 7);
        let mut rhs = vec![0.0; layout.n];
        rhs[layout.vsrc_rows[0]] = 1.8;
        rhs[layout.vsrc_rows[1]] = 0.7;
        let n = layout.n;
        let points: Vec<Vec<f64>> = vec![
            vec![0.0; n],
            (0..n).map(|i| 0.1 * i as f64).collect(),
            (0..n).map(|i| 0.9 + 0.9 * (0.7 * i as f64).sin()).collect(),
            (0..n).map(|i| if i % 2 == 0 { 1.8 } else { 0.2 }).collect(),
        ];

        for (backend, sparse) in [
            (SolverBackend::Dense, false),
            (SolverBackend::Auto, true),
            (SolverBackend::Sparse, true),
        ] {
            let base = Solver::build_with(&static_t, backend).unwrap();
            let wb = WoodburySolver::new(base, &layout, &mosfets).unwrap();
            assert_eq!(wb.base.is_sparse(), sparse, "{backend:?}");
            let y0 = wb.base_solve(&rhs).unwrap();
            for x_lin in &points {
                let mut t = static_t.clone();
                let mut b = rhs.clone();
                for m in &mosfets {
                    stamp_mosfet(&mut t, &mut b, &layout, m, x_lin);
                }
                let direct = Solver::build_with(&t, SolverBackend::Dense)
                    .unwrap()
                    .solve(&b)
                    .unwrap();
                let fast = wb.newton_update(&mosfets, x_lin, &y0).unwrap();
                for (i, (a, f)) in direct.iter().zip(&fast).enumerate() {
                    assert!(
                        (a - f).abs() <= 1e-10 * a.abs().max(1.0),
                        "{backend:?} unknown {i}: direct {a} vs woodbury {f}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_devices_degenerates_to_plain_solve() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor(a, Circuit::GND, 2.0);
        c.isrc(Circuit::GND, a, SourceWave::dc(1.0));
        let layout = MnaLayout::build(&c);
        let static_t = assemble_static(&c, &layout, Scheme::Dc, 0.0);
        let base = Solver::build_with(&static_t, SolverBackend::Auto).unwrap();
        let wb = WoodburySolver::new(base, &layout, &[]).unwrap();
        let y0 = wb.base_solve(&[1.0]).unwrap();
        let x = wb.newton_update(&[], &[0.0], &y0).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-9);
    }
}
