//! The parallel AC sweep must be a pure speed-up: identical results to
//! the serial sweep (frequencies are only *partitioned* across threads,
//! never reordered or re-solved differently), and identical error
//! semantics.

use ind101_circuit::{AcOptions, AcResult, Circuit, CircuitError, ResilienceOptions, SourceWave};
use ind101_numeric::ParallelConfig;

/// RLC ladder with an AC source: exercises resistors, capacitors and
/// the inductor branch equations in the complex MNA system.
fn rlc_ladder(stages: usize) -> (Circuit, Vec<ind101_circuit::NodeId>) {
    let mut c = Circuit::new();
    let mut prev = c.node("in");
    c.vsrc_ac(prev, Circuit::GND, SourceWave::dc(1.0), 1.0);
    let mut nodes = vec![prev];
    for k in 0..stages {
        let mid = c.node(format!("m{k}"));
        let out = c.node(format!("n{k}"));
        c.resistor(prev, mid, 10.0 + k as f64);
        c.inductor(mid, out, 1e-9 * (1.0 + k as f64));
        c.capacitor(out, Circuit::GND, 20e-15);
        nodes.push(out);
        prev = out;
    }
    (c, nodes)
}

/// The strict sweep on `threads` worker threads.
fn sweep(c: &Circuit, opts: &AcOptions, threads: usize) -> Result<AcResult, CircuitError> {
    let cfg = ParallelConfig::with_threads(threads);
    c.ac_sweep_resilient(opts, &cfg, &ResilienceOptions::strict(), None)
        .map(|s| s.ac)
}

#[test]
fn parallel_sweep_matches_serial_bitwise() {
    let (c, nodes) = rlc_ladder(6);
    let opts = AcOptions::log_sweep(1e6, 1e11, 7);
    let serial = sweep(&c, &opts, 1).expect("serial sweep");
    let par = sweep(&c, &opts, 4).expect("parallel sweep");
    assert_eq!(serial.freqs_hz, par.freqs_hz, "frequency grid reordered");
    for &n in &nodes {
        for idx in 0..serial.freqs_hz.len() {
            assert_eq!(
                serial.voltage(n, idx),
                par.voltage(n, idx),
                "voltage diverged at node {n:?}, point {idx}"
            );
        }
    }
}

#[test]
fn default_sweep_matches_explicit_config() {
    let (c, nodes) = rlc_ladder(3);
    let opts = AcOptions { freqs_hz: vec![1e8, 1e9, 1e10] };
    let a = c.ac_sweep(&opts).expect("default sweep");
    let b = sweep(&c, &opts, 2).expect("two-thread sweep");
    for &n in &nodes {
        for idx in 0..opts.freqs_hz.len() {
            assert_eq!(a.voltage(n, idx), b.voltage(n, idx));
        }
    }
}

/// An invalid frequency must produce the same error no matter how many
/// threads the sweep uses (first error in frequency order wins).
#[test]
fn error_semantics_are_thread_invariant() {
    let (c, _) = rlc_ladder(2);
    let opts = AcOptions {
        freqs_hz: vec![1e9, -1.0, f64::NAN],
    };
    let e1 = sweep(&c, &opts, 1).expect_err("serial should reject");
    let e4 = sweep(&c, &opts, 4).expect_err("parallel should reject");
    assert_eq!(format!("{e1}"), format!("{e4}"));
}
