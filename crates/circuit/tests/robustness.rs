//! Integration tests for the robustness layer: the DC convergence-
//! rescue ladder on randomized stiff RLC ladders, structured
//! singular-system diagnostics, and the adaptive-vs-fixed transient
//! differential on randomized networks.

use ind101_circuit::{
    Circuit, CircuitError, MosPolarity, Mosfet, NodeId, RescuePolicy, RescueRung, SourceWave,
    TranOptions,
};
use proptest::prelude::*;

/// A stiff nonlinear circuit whose DC solution sits hundreds of volts
/// from the origin — beyond what the damped Newton budget (200
/// iterations × 1 V damping clamp) can travel — with a randomized RLC
/// ladder hanging off the hot node. The ladder has no DC path to
/// ground (capacitors are open), so it stresses conditioning without
/// changing the expected answer.
fn stiff_rlc_ladder(seed: u64, stages: usize) -> (Circuit, NodeId, f64) {
    let mut s = seed.wrapping_add(41);
    let mut next = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((s >> 33) as f64) / (u32::MAX as f64)
    };
    let mut c = Circuit::new();
    let hi = c.node("hi");
    let g = c.node("g");
    let amps = 0.5 + 1.5 * next();
    let ohms = 600.0 + 1400.0 * next();
    let volts = amps * ohms; // 300 V .. 4 kV — always past the budget
    c.isrc(Circuit::GND, hi, SourceWave::dc(amps));
    c.resistor(hi, Circuit::GND, ohms);
    c.vsrc(g, Circuit::GND, SourceWave::dc(1.2));
    // Near-inert device (β = 1 nA/V²) that makes the circuit nonlinear
    // without materially loading the hot node.
    c.mosfet(Mosfet {
        d: hi,
        g,
        s: Circuit::GND,
        polarity: MosPolarity::Nmos,
        beta: 1e-9,
        vt: 0.5,
        lambda: 0.0,
    });
    let mut prev = hi;
    for k in 0..stages {
        let n = c.node(format!("lad{k}"));
        let mid = c.anon_node();
        c.resistor(prev, mid, 1.0 + 10.0 * next());
        c.inductor(mid, n, 1e-10 + 1e-9 * next());
        c.capacitor(n, Circuit::GND, 1e-15 + 100e-15 * next());
        prev = n;
    }
    (c, hi, volts)
}

/// A random grounded RC ladder driven by a pulse, for the adaptive
/// differential.
fn random_rc_ladder(seed: u64, stages: usize) -> (Circuit, Vec<NodeId>) {
    let mut s = seed.wrapping_add(17);
    let mut next = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((s >> 33) as f64) / (u32::MAX as f64)
    };
    let mut c = Circuit::new();
    let inp = c.node("in");
    let pulse = SourceWave::Pulse {
        v0: 0.0,
        v1: 1.0,
        delay: 10e-12,
        rise: 20e-12,
        fall: 20e-12,
        width: 100e-12,
        period: f64::INFINITY,
    };
    c.vsrc(inp, Circuit::GND, pulse);
    let mut nodes = Vec::new();
    let mut prev = inp;
    for k in 0..stages {
        let n = c.node(format!("n{k}"));
        c.resistor(prev, n, 10.0 + 1000.0 * next());
        c.capacitor(n, Circuit::GND, 1e-15 + 50e-15 * next());
        if next() > 0.6 {
            c.resistor(n, Circuit::GND, 500.0 + 5000.0 * next());
        }
        nodes.push(n);
        prev = n;
    }
    (c, nodes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The rescue ladder recovers operating points that plain damped
    /// Newton provably cannot reach, across randomized stiff RLC
    /// ladders, and the report records the escalation faithfully.
    #[test]
    fn rescue_ladder_converges_where_plain_newton_fails(
        seed in 0u64..300,
        stages in 1usize..6,
    ) {
        let (c, hi, volts) = stiff_rlc_ladder(seed, stages);
        prop_assert!(
            matches!(c.dc_op(), Err(CircuitError::NewtonDiverged { .. })),
            "plain Newton unexpectedly converged"
        );
        let (op, report) = c.dc_op_with(&RescuePolicy::full(), None).unwrap();
        prop_assert!(!report.plain_sufficed());
        prop_assert_eq!(report.rungs[0].rung, RescueRung::PlainNewton);
        prop_assert!(!report.rungs[0].converged);
        prop_assert!(report.total_iterations > 0);
        prop_assert!(!report.summary().is_empty());
        let v = op.voltage(hi);
        prop_assert!(
            (v - volts).abs() / volts < 5e-3,
            "rescued to {v}, expected {volts} (rung {:?})",
            report.converged_by
        );
    }

    /// Adaptive stepping reproduces the fixed-step waveform within the
    /// LTE tolerance on randomized RC ladders, and its bookkeeping is
    /// coherent.
    #[test]
    fn adaptive_tracks_fixed_step_on_random_ladders(
        seed in 0u64..200,
        stages in 1usize..6,
    ) {
        let (c, nodes) = random_rc_ladder(seed, stages);
        let fixed = c.transient(&TranOptions::new(1e-12, 300e-12)).unwrap();
        let adaptive = c
            .transient(&TranOptions::new(1e-12, 300e-12).adaptive())
            .unwrap();
        prop_assert!(adaptive.steps_attempted > 0);
        prop_assert!(adaptive.steps_rejected < adaptive.steps_attempted);
        for n in nodes {
            let vf = fixed.voltage(n);
            let va = adaptive.voltage(n);
            for (&t, &v) in vf.time.iter().zip(&vf.values) {
                let d = (va.sample(t) - v).abs();
                prop_assert!(d < 0.02, "node diverges at t={t}: |Δ| = {d}");
            }
        }
    }
}

/// A voltage-source loop (two identical sources in parallel) makes the
/// MNA matrix structurally singular; the error must name the offending
/// unknown in circuit terms instead of a raw pivot index.
#[test]
fn parallel_voltage_sources_report_mapped_singularity() {
    let mut c = Circuit::new();
    let a = c.node("a");
    c.vsrc(a, Circuit::GND, SourceWave::dc(1.0));
    c.vsrc(a, Circuit::GND, SourceWave::dc(1.0));
    c.resistor(a, Circuit::GND, 100.0);
    match c.dc_op() {
        Err(CircuitError::SingularSystem { what, .. }) => {
            assert!(
                what.contains("voltage source"),
                "diagnostic should name the source: {what}"
            );
        }
        other => panic!("expected a mapped singular system, got {other:?}"),
    }
}

/// The rescue ladder cannot fix a structural singularity — it must
/// still surface the mapped diagnostic rather than a divergence error.
#[test]
fn rescue_does_not_mask_structural_singularity() {
    let mut c = Circuit::new();
    let a = c.node("a");
    let g = c.node("g");
    c.vsrc(a, Circuit::GND, SourceWave::dc(1.0));
    c.vsrc(a, Circuit::GND, SourceWave::dc(1.0));
    c.vsrc(g, Circuit::GND, SourceWave::dc(1.2));
    c.mosfet(Mosfet {
        d: a,
        g,
        s: Circuit::GND,
        polarity: MosPolarity::Nmos,
        beta: 1e-6,
        vt: 0.5,
        lambda: 0.0,
    });
    let err = c.dc_op_with(&RescuePolicy::full(), None).unwrap_err();
    assert!(
        matches!(err, CircuitError::SingularSystem { .. }),
        "got {err:?}"
    );
}
