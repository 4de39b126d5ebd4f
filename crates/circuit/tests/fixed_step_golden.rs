//! Differential guard: the default fixed-step transient path is pinned
//! bit for bit. The two linear hashes were captured from the seed
//! implementation (fixed-step trapezoidal with backward-Euler start)
//! before the adaptive-step / rescue layer landed; the nonlinear hash
//! pins the current Woodbury Newton arithmetic (see its test). Any
//! change to the default path shows up as a hash mismatch here.
//!
//! The ladder pins cover what the small circuits above cannot: a
//! nonlinear run above the small-dense floor on each linear-solver rung,
//! fixed and adaptive. They were captured from the implementation with
//! separate fixed and adaptive stepping loops, each step matrix planned
//! afresh, before the two loops became one over one plan.

use ind101_circuit::{Circuit, InverterParams, SolverBackend, SourceWave, TranOptions, TranResult};
use ind101_numeric::Matrix;

/// FNV-1a over the raw bit patterns of every recorded sample.
fn waveform_hash(res: &TranResult, probes: &[ind101_circuit::NodeId]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut eat = |bits: u64| {
        for b in bits.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for &t in res.time() {
        eat(t.to_bits());
    }
    for &p in probes {
        let tr = res.voltage(p);
        for &v in &tr.values {
            eat(v.to_bits());
        }
    }
    h
}

fn rc_ladder() -> (Circuit, Vec<ind101_circuit::NodeId>) {
    let mut c = Circuit::new();
    let inp = c.node("in");
    c.vsrc(inp, Circuit::GND, SourceWave::step(0.0, 1.0, 10e-12, 20e-12));
    let mut prev = inp;
    let mut probes = Vec::new();
    for k in 0..6 {
        let n = c.node(format!("n{k}"));
        c.resistor(prev, n, 120.0 + 35.0 * k as f64);
        c.capacitor(n, Circuit::GND, 12e-15 + 3e-15 * k as f64);
        probes.push(n);
        prev = n;
    }
    (c, probes)
}

fn rlc_ring() -> (Circuit, Vec<ind101_circuit::NodeId>) {
    let mut c = Circuit::new();
    let a = c.node("a");
    let s1 = c.node("s1");
    let s2 = c.node("s2");
    c.vsrc(a, Circuit::GND, SourceWave::step(0.0, 1.8, 5e-12, 15e-12));
    c.resistor(a, s1, 4.0);
    let mut m = Matrix::zeros(2, 2);
    m[(0, 0)] = 1.2e-9;
    m[(1, 1)] = 0.9e-9;
    m[(0, 1)] = 0.45e-9;
    m[(1, 0)] = 0.45e-9;
    c.add_inductor_system(ind101_circuit::InductorSystem {
        branches: vec![(s1, Circuit::GND), (s2, Circuit::GND)],
        m,
    })
    .unwrap();
    c.capacitor(s1, Circuit::GND, 40e-15);
    c.resistor(s2, Circuit::GND, 2e3);
    (c, vec![a, s1, s2])
}

fn inverter_rlc() -> (Circuit, Vec<ind101_circuit::NodeId>) {
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let inp = c.node("in");
    let out = c.node("out");
    let far = c.node("far");
    let tail = c.node("tail");
    c.vsrc(vdd, Circuit::GND, SourceWave::dc(1.8));
    c.vsrc(inp, Circuit::GND, SourceWave::step(0.0, 1.8, 40e-12, 25e-12));
    c.inverter(inp, out, vdd, Circuit::GND, InverterParams::default());
    c.resistor(out, far, 12.0);
    c.inductor(far, tail, 0.8e-9);
    c.capacitor(tail, Circuit::GND, 60e-15);
    (c, vec![out, far, tail])
}

#[test]
fn rc_ladder_fixed_step_is_bit_identical_to_seed() {
    let (c, probes) = rc_ladder();
    let res = c.transient(&TranOptions::new(1e-12, 400e-12)).unwrap();
    assert_eq!(waveform_hash(&res, &probes), 0x4218ce5fdbbfc7c0);
}

#[test]
fn rlc_ring_fixed_step_is_bit_identical_to_seed() {
    let (c, probes) = rlc_ring();
    let res = c.transient(&TranOptions::new(0.5e-12, 300e-12)).unwrap();
    assert_eq!(waveform_hash(&res, &probes), 0x99b90d715afc66fd);
}

/// Pins the Woodbury Newton arithmetic: one base solve `y₀ = A₀⁻¹·rhs`
/// per time point, then per iteration `x = y₀ − Z·a` with
/// `a = (I + W·Z)⁻¹·(W·y₀ + ieq)`. The hash was re-captured when that
/// split replaced a base solve per iteration; the waveform then stayed
/// within 1.3e-14 V of the seed's and the Newton count below held.
#[test]
fn nonlinear_fixed_step_is_bit_identical_to_seed() {
    let (c, probes) = inverter_rlc();
    let res = c.transient(&TranOptions::new(1e-12, 500e-12)).unwrap();
    assert_eq!(res.newton_iterations, 1031);
    assert_eq!(waveform_hash(&res, &probes), 0xcd3d4f2b127965aa);
}

/// An inverter driving a 60-section RC ladder with an inductor tail: 67
/// unknowns, above the small-dense floor, so the step matrices take the
/// rung `backend` picks (`Auto` without an environment override picks
/// the sparse one).
fn inverter_ladder_rl(backend: SolverBackend) -> (Circuit, Vec<ind101_circuit::NodeId>) {
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let inp = c.node("in");
    let out = c.node("out");
    c.vsrc(vdd, Circuit::GND, SourceWave::dc(1.8));
    c.vsrc(inp, Circuit::GND, SourceWave::step(0.0, 1.8, 20e-12, 20e-12));
    c.inverter(inp, out, vdd, Circuit::GND, InverterParams::default());
    let mut prev = out;
    for k in 0..60 {
        let n = c.node(format!("n{k}"));
        c.resistor(prev, n, 15.0 + (k % 7) as f64);
        c.capacitor(n, Circuit::GND, 2e-15 + 0.1e-15 * (k % 5) as f64);
        prev = n;
    }
    let tail = c.node("tail");
    c.inductor(prev, tail, 0.4e-9);
    c.capacitor(tail, Circuit::GND, 30e-15);
    c.resistor(tail, Circuit::GND, 5e3);
    c.set_solver_backend(backend);
    let probes = ["out", "n30", "n59", "tail"].map(|n| c.node(n)).to_vec();
    (c, probes)
}

/// The pin of a run under `Auto`, picked by what `Auto` resolves to
/// under `IND101_SOLVER_BACKEND`: the sparse rung's unless it is forced
/// dense.
fn under_auto(dense: u64, sparse: u64) -> u64 {
    match SolverBackend::Auto.resolve() {
        SolverBackend::Dense => dense,
        SolverBackend::Auto | SolverBackend::Sparse => sparse,
    }
}

const LADDER_DENSE: u64 = 0xa99e2fa625256ef2;
const LADDER_SPARSE: u64 = 0x1771b4d1b1fa37a7;

#[test]
fn nonlinear_ladder_fixed_step_is_pinned_on_forced_sparse_and_auto() {
    let auto = under_auto(LADDER_DENSE, LADDER_SPARSE);
    for (backend, expected) in [(SolverBackend::Sparse, LADDER_SPARSE), (SolverBackend::Auto, auto)]
    {
        let (c, probes) = inverter_ladder_rl(backend);
        let res = c.transient(&TranOptions::new(1e-12, 150e-12)).unwrap();
        assert_eq!(res.newton_iterations, 327, "{backend:?}");
        assert_eq!(waveform_hash(&res, &probes), expected, "{backend:?}");
    }
}

/// The adaptive controller on the same ladder: every rung takes the
/// same steps, rejections and Newton iterations, and its own waveform.
#[test]
fn nonlinear_ladder_adaptive_run_is_pinned_on_auto() {
    let (c, probes) = inverter_ladder_rl(SolverBackend::Auto);
    let res = c
        .transient(&TranOptions::new(1e-12, 150e-12).adaptive())
        .unwrap();
    assert_eq!(
        (res.steps_attempted, res.steps_rejected, res.newton_iterations),
        (393, 54, 980)
    );
    let expected = under_auto(0x04d90b97b3aadf2e, 0xe34d8b2572ff704b);
    assert_eq!(waveform_hash(&res, &probes), expected);
}
