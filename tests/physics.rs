//! Metamorphic physics tests: laws the paper's circuits obey whatever
//! solver computes them.
//!
//! * AC reciprocity: a passive RLC two-port with a symmetric inductance
//!   matrix has `Z₁₂ = Z₂₁`, under the dense, forced sparse and
//!   matrix-free solvers.
//! * Figure 3: loop R(f) never falls and L(f) never rises over the full
//!   13-point sweep, under both extraction backends.
//! * Energy: a lossless coupled LC ladder under trapezoidal steps gains
//!   exactly the work its source does, on the dense and forced sparse
//!   solvers.
//! * Passivity: the extracted partial-inductance matrices of the Table-1
//!   clock net and the Section-4 bus are symmetric positive definite
//!   before any sparsification.
//!
//! Every circuit has more unknowns than the solver's small-system floor
//! (48), so a forced sparse backend really runs the sparse rung and its
//! refinement.

use ind101::circuit::{
    AcOptions, Circuit, InductorSystem, MatrixFreeAcOptions, NodeId, ResilienceOptions,
    SolverBackend, SourceWave, TranOptions,
};
use ind101::geom::Technology;
use ind101::loopind::{extract_loop_rl_resilient, ExtractionBackend, LoopPortSpec};
use ind101::numeric::{extreme_eigenvalues, Complex64, LinearOperator, Matrix, ParallelConfig};
use ind101_bench::scenarios::sec4_bus_inductance;
use ind101_bench::{clock_case, Scale};

/// Sections per ladder of the reciprocity two-port (2 ladders → 34
/// nodes + 32 branch currents = 66 unknowns).
const TWO_PORT_SECTIONS: usize = 16;

/// Relative `|Z₁₂ − Z₂₁|` allowed of a direct solve. The two transfer
/// impedances come from separate solves; the unrefined dense solve
/// puts them up to 6e-12 apart at 100 GHz, the refined sparse one
/// 5e-15 (x86-64).
const DIRECT_RECIPROCITY_RTOL: f64 = 1e-10;

/// Relative `|Z₁₂ − Z₂₁|` allowed of the matrix-free solve: GMRES stops
/// at a 1e-10 relative residual, which leaves them up to 3e-10 apart.
const MATRIX_FREE_RECIPROCITY_RTOL: f64 = 1e-8;

/// Slack for the Figure-3 monotonicity, relative (flowbench's): a flat
/// low-frequency plateau may wobble in the last bits.
const MONOTONE_RTOL: f64 = 1e-9;

/// Sections of the lossless LC ladder (31 nodes + 30 branch currents +
/// 1 source current = 62 unknowns).
const LADDER_SECTIONS: usize = 30;

/// Largest `|ΔE − W|` allowed over the whole run, relative to the peak
/// stored energy. The unrefined dense solves leave 1e-12, the refined
/// sparse ones 2e-14 (x86-64); leaving out the gmin loss would cost
/// about 3e-9.
const ENERGY_RTOL: f64 = 1e-10;

/// The simulator's gmin floor, siemens: every node carries it to
/// ground, so it is the ladder's only loss and enters the balance.
const GMIN_S: f64 = 1e-12;

/// Laplace-kernel inductance matrix over branch midpoints `pts`
/// (metres): `M_ij = l0 · exp(−|p_i − p_j| / λ)`, positive definite for
/// distinct points.
fn laplace_inductance(pts: &[(f64, f64)], l0: f64, lambda: f64) -> Matrix<f64> {
    Matrix::from_fn(pts.len(), pts.len(), |i, j| {
        let (dx, dy) = (pts[i].0 - pts[j].0, pts[i].1 - pts[j].1);
        l0 * (-(dx * dx + dy * dy).sqrt() / lambda).exp()
    })
}

/// Two parallel RC-loaded ladders whose series inductors form one
/// coupled system. Port 1 is the head of ladder A, port 2 the tail of
/// ladder B; the AC current source drives the port named by `drive_b`.
fn two_port(drive_b: bool, backend: SolverBackend) -> (Circuit, NodeId, NodeId, Matrix<f64>) {
    let mut c = Circuit::new();
    c.set_solver_backend(backend);
    let mut branches = Vec::new();
    let mut pts = Vec::new();
    let mut ends = Vec::new();
    for (ladder, y) in [("a", 0.0), ("b", 1e-6)] {
        let nodes: Vec<NodeId> = (0..=TWO_PORT_SECTIONS)
            .map(|k| c.node(format!("{ladder}{k}")))
            .collect();
        for (k, &nd) in nodes.iter().enumerate() {
            c.resistor(nd, Circuit::GND, 50.0 + 3.0 * k as f64);
            c.capacitor(nd, Circuit::GND, 20e-15 * (1.0 + 0.1 * k as f64));
        }
        for k in 0..TWO_PORT_SECTIONS {
            branches.push((nodes[k], nodes[k + 1]));
            pts.push(((k as f64 + 0.5) * 1e-6, y));
        }
        ends.push((nodes[0], nodes[TWO_PORT_SECTIONS]));
    }
    let (port1, port2) = (ends[0].0, ends[1].1);
    let m = laplace_inductance(&pts, 0.5e-9, 1.5e-6);
    c.add_inductor_system(InductorSystem {
        branches,
        m: m.clone(),
    })
    .expect("SPD coupling");
    let driven = if drive_b { port2 } else { port1 };
    c.isrc_ac(Circuit::GND, driven, SourceWave::dc(0.0), 1.0);
    (c, port1, port2, m)
}

fn reciprocity_freqs() -> AcOptions {
    AcOptions {
        freqs_hz: vec![1e7, 1e8, 1e9, 1e10, 1e11],
    }
}

/// `(Z₂₁, Z₁₂)` per frequency: the port-2 voltage under a unit current
/// into port 1, and the port-1 voltage under a unit current into port 2.
fn transfer_impedances(
    sweep: impl Fn(&Circuit, &Matrix<f64>) -> ind101::circuit::AcResult,
    backend: SolverBackend,
) -> Vec<(Complex64, Complex64)> {
    let (c1, p1, p2, m) = two_port(false, backend);
    let (c2, _, _, _) = two_port(true, backend);
    let (r1, r2) = (sweep(&c1, &m), sweep(&c2, &m));
    (0..reciprocity_freqs().freqs_hz.len())
        .map(|k| (r1.voltage(p2, k), r2.voltage(p1, k)))
        .collect()
}

fn assert_reciprocal(label: &str, z: &[(Complex64, Complex64)], rtol: f64) {
    for (k, (z21, z12)) in z.iter().enumerate() {
        let gap = (*z21 - *z12).abs();
        assert!(
            gap <= rtol * z12.abs(),
            "{label}, f[{k}]: Z21 = {z21:?}, Z12 = {z12:?}, gap {:e} relative",
            gap / z12.abs()
        );
    }
}

#[test]
fn ac_two_port_is_reciprocal_on_every_solver() {
    let opts = reciprocity_freqs();
    for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
        let z = transfer_impedances(|c, _| c.ac_sweep(&opts).expect("AC sweep"), backend);
        assert_reciprocal(backend.name(), &z, DIRECT_RECIPROCITY_RTOL);
    }
    let z = transfer_impedances(
        |c, m| {
            c.ac_sweep_matrix_free_resilient(
                &opts,
                &[(0, m as &dyn LinearOperator<Complex64>)],
                &MatrixFreeAcOptions::default(),
                &ResilienceOptions::strict(),
            )
            .expect("matrix-free AC sweep")
            .ac
        },
        SolverBackend::Auto,
    );
    assert_reciprocal("matrix-free", &z, MATRIX_FREE_RECIPROCITY_RTOL);
}

#[test]
fn figure3_resistance_rises_and_inductance_falls_on_both_backends() {
    let case = clock_case(Scale::Small);
    let spec = LoopPortSpec::from_layout(&case.par).expect("clock ports");
    // Figure 3's sweep: 10 MHz to 100 GHz, three points per decade.
    let freqs: Vec<f64> = (0..13)
        .map(|k| 1e7 * 10f64.powf(f64::from(k) / 3.0))
        .collect();
    let cfg = ParallelConfig::default();
    for backend in [ExtractionBackend::Dense, ExtractionBackend::MatrixFree] {
        let ext = extract_loop_rl_resilient(
            &case.par,
            &spec,
            &freqs,
            &cfg,
            backend,
            &ResilienceOptions::strict(),
        )
        .unwrap_or_else(|e| panic!("{backend:?} extraction: {e}"))
        .extraction;
        assert_eq!(ext.r_ohm.len(), freqs.len());
        for k in 1..freqs.len() {
            let (r0, l0) = ext.at(k - 1);
            let (r1, l1) = ext.at(k);
            assert!(
                r1 >= r0 * (1.0 - MONOTONE_RTOL),
                "{backend:?}: R falls from {r0:e} to {r1:e} at {:e} Hz",
                freqs[k]
            );
            assert!(
                l1 <= l0 * (1.0 + MONOTONE_RTOL),
                "{backend:?}: L rises from {l0:e} to {l1:e} at {:e} Hz",
                freqs[k]
            );
        }
        // Skin and proximity effect are really there, not a flat line.
        assert!(ext.r_ohm[12] > ext.r_ohm[0] * 1.01, "{:?}", ext.r_ohm);
        assert!(ext.l_h[12] < ext.l_h[0] * 0.99, "{:?}", ext.l_h);
    }
}

/// A lossless ladder: an ideal voltage step into series coupled
/// inductors with shunt capacitors. Returns the circuit, its nodes
/// (source node first), the shunt capacitances and the inductance
/// matrix.
fn lc_ladder(backend: SolverBackend) -> (Circuit, Vec<NodeId>, Vec<f64>, Matrix<f64>) {
    let mut c = Circuit::new();
    c.set_solver_backend(backend);
    let nodes: Vec<NodeId> = (0..=LADDER_SECTIONS)
        .map(|k| c.node(format!("n{k}")))
        .collect();
    // The step completes inside the first time step, so from step 2 on
    // the source voltage is constant.
    c.vsrc(
        nodes[0],
        Circuit::GND,
        SourceWave::step(0.0, 1.0, 0.0, 0.5e-12),
    );
    let caps: Vec<f64> = (1..=LADDER_SECTIONS)
        .map(|k| 40e-15 * (1.0 + 0.05 * k as f64))
        .collect();
    for (&nd, &cap) in nodes[1..].iter().zip(&caps) {
        c.capacitor(nd, Circuit::GND, cap);
    }
    let pts: Vec<(f64, f64)> = (0..LADDER_SECTIONS)
        .map(|k| ((k as f64 + 0.5) * 1e-6, 0.0))
        .collect();
    let m = laplace_inductance(&pts, 0.2e-9, 2e-6);
    c.add_inductor_system(InductorSystem {
        branches: (0..LADDER_SECTIONS)
            .map(|k| (nodes[k], nodes[k + 1]))
            .collect(),
        m: m.clone(),
    })
    .expect("SPD coupling");
    (c, nodes, caps, m)
}

/// Under the trapezoidal rule every element's averaged current and
/// averaged voltage obey Kirchhoff's laws, so by Tellegen's theorem
/// the step's change in stored energy equals `h·v̄·ī` of the source
/// minus `h·gmin·Σ v̄²` exactly, up to the solver's error. With a
/// constant source voltage `h·v̄·ī` is also the trapezoid rule's
/// source work.
#[test]
fn lossless_lc_ladder_conserves_energy_under_trapezoidal_steps() {
    let h = 1e-12;
    for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
        let (c, nodes, caps, m) = lc_ladder(backend);
        let res = c
            .transient(&TranOptions::new(h, 400e-12))
            .expect("transient");
        let steps = res.len();
        let v: Vec<Vec<f64>> = nodes.iter().map(|&nd| res.voltage(nd).values).collect();
        let i_l: Vec<Vec<f64>> = (0..LADDER_SECTIONS)
            .map(|b| res.inductor_current(0, b).values)
            .collect();
        // The source current flows from + through the source; the
        // source delivers −v·i.
        let i_src = res.vsrc_current(0).values;
        let energy = |k: usize| -> f64 {
            let cap: f64 = caps
                .iter()
                .zip(&v[1..])
                .map(|(c, vn)| 0.5 * c * vn[k] * vn[k])
                .sum();
            let mut ind = 0.0;
            for a in 0..LADDER_SECTIONS {
                for b in 0..LADDER_SECTIONS {
                    ind += 0.5 * i_l[a][k] * m[(a, b)] * i_l[b][k];
                }
            }
            cap + ind
        };
        let avg = |x: &[f64], k: usize| 0.5 * (x[k] + x[k - 1]);
        // Record 0 is the DC point and record 1 the backward-Euler step.
        let start = energy(1);
        let mut work = 0.0;
        let mut worst = 0.0f64;
        let mut peak = 0.0f64;
        for k in 2..steps {
            let source = -h * avg(&v[0], k) * avg(&i_src, k);
            let loss: f64 = v.iter().map(|vn| h * GMIN_S * avg(vn, k).powi(2)).sum();
            work += source - loss;
            let e = energy(k);
            peak = peak.max(e);
            worst = worst.max((e - start - work).abs());
        }
        assert!(steps > 300, "{steps} records");
        assert!(peak > 1e-14, "the ladder must charge: peak {peak:e} J");
        assert!(
            worst <= ENERGY_RTOL * peak,
            "{}: energy balance off by {:e} of the peak",
            backend.name(),
            worst / peak
        );
    }
}

/// A partial-inductance matrix stores the magnetic energy `½·iᵀ·L·i` of
/// any current pattern, so before sparsification it must be symmetric
/// (bit for bit: extraction mirrors each mutual) and positive definite
/// (Cholesky succeeds and the smallest eigenvalue is positive).
#[test]
fn partial_inductance_is_symmetric_positive_definite_before_sparsification() {
    let small = clock_case(Scale::Small);
    let medium = clock_case(Scale::Medium);
    let bus = sec4_bus_inductance(&Technology::example_copper_6lm());
    for (name, l) in [
        ("Table-1 Small", small.par.partial_l.matrix()),
        ("Table-1 Medium", medium.par.partial_l.matrix()),
        ("Section-4 bus", bus.matrix()),
    ] {
        let n = l.nrows();
        assert!(n > 1 && l.ncols() == n, "{name}: {n}×{}", l.ncols());
        for i in 0..n {
            for j in 0..i {
                assert_eq!(
                    l[(i, j)].to_bits(),
                    l[(j, i)].to_bits(),
                    "{name}: L[{i}][{j}] = {:e} but L[{j}][{i}] = {:e}",
                    l[(i, j)],
                    l[(j, i)]
                );
            }
        }
        if let Err(e) = l.cholesky() {
            panic!("{name}: Cholesky fails: {e}");
        }
        let (lo, hi) = extreme_eigenvalues(l).unwrap();
        assert!(lo > 0.0 && hi >= lo, "{name}: λ ∈ [{lo:e}, {hi:e}] H");
    }
}
