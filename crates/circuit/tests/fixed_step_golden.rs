//! Differential guard: the default fixed-step transient path is pinned
//! bit for bit. The two linear hashes were captured from the seed
//! implementation (fixed-step trapezoidal with backward-Euler start)
//! before the adaptive-step / rescue layer landed; the nonlinear hash
//! pins the current Woodbury Newton arithmetic (see its test). Any
//! change to the default path shows up as a hash mismatch here.

use ind101_circuit::{Circuit, InverterParams, SourceWave, TranOptions, TranResult};
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
