//! Fault-injection smoke tests (run with `--features solver-faults`).
//!
//! Real convergence failures and singular pivots are hard to construct
//! on demand; these tests arm the deterministic fault hooks in
//! [`ind101_circuit::faults`] and check that every recovery path does
//! what it claims: the rescue ladder escalates past a failed plain
//! rung, singular pivots map to circuit-level names, the adaptive
//! controller rejects stalled steps (or gives up cleanly at `dt_min`),
//! and a singular Jacobian counts as a failed Newton iteration.

#![cfg(feature = "solver-faults")]

use ind101_circuit::{
    faults, Circuit, CircuitError, InverterParams, NodeId, RescuePolicy, RescueRung, SourceWave,
    TranOptions,
};
use std::sync::{Mutex, MutexGuard};

/// Fault state is process-global; serialize the tests and start each
/// one from a clean slate.
static LOCK: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    let g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    faults::reset();
    g
}

/// The stock inverter-driving-RC circuit: nonlinear, so the transient
/// Newton path (where the stall hook lives) is exercised.
fn inverter_rc() -> (Circuit, NodeId) {
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let inp = c.node("in");
    let out = c.node("out");
    c.vsrc(vdd, Circuit::GND, SourceWave::dc(1.8));
    c.vsrc(inp, Circuit::GND, SourceWave::step(0.0, 1.8, 50e-12, 30e-12));
    c.inverter(inp, out, vdd, Circuit::GND, InverterParams::default());
    c.capacitor(out, Circuit::GND, 50e-15);
    (c, out)
}

#[test]
fn forced_plain_failure_escalates_to_gmin_stepping() {
    let _g = exclusive();
    let (c, out) = inverter_rc();
    faults::force_plain_newton_failure(true);
    let (op, report) = c.dc_op_with(&RescuePolicy::full()).unwrap();
    faults::reset();
    assert!(!report.plain_sufficed());
    assert!(!report.rungs[0].converged);
    assert_eq!(report.converged_by, RescueRung::GminStepping);
    // The rescued operating point agrees with the unforced solve.
    let plain = c.dc_op().unwrap();
    assert!(
        (op.voltage(out) - plain.voltage(out)).abs() < 1e-6,
        "rescued {} vs plain {}",
        op.voltage(out),
        plain.voltage(out)
    );
}

#[test]
fn injected_singular_pivot_maps_to_node_name() {
    let _g = exclusive();
    let mut c = Circuit::new();
    let n7 = c.node("n7");
    c.isrc(Circuit::GND, n7, SourceWave::dc(1e-3));
    c.resistor(n7, Circuit::GND, 1_000.0);
    faults::inject_singular_pivot(Some(0));
    let err = c.dc_op().unwrap_err();
    faults::reset();
    match err {
        CircuitError::SingularSystem { unknown, what } => {
            assert_eq!(unknown, 0);
            assert!(what.contains("n7"), "diagnostic: {what}");
            assert!(what.contains("floating"), "diagnostic: {what}");
        }
        other => panic!("expected mapped singularity, got {other:?}"),
    }
}

#[test]
fn adaptive_controller_rejects_stalled_steps_and_recovers() {
    let _g = exclusive();
    let (c, out) = inverter_rc();
    faults::inject_tran_newton_stalls(3);
    let res = c
        .transient(&TranOptions::new(1e-12, 200e-12).adaptive())
        .unwrap();
    faults::reset();
    assert!(
        res.steps_rejected >= 3,
        "rejected only {} steps",
        res.steps_rejected
    );
    // The waveform still comes out right once the stalls dissipate.
    assert!(res.voltage(out).values[0] > 1.7);
    assert!(res.steps_attempted > res.steps_rejected);
}

#[test]
fn fixed_step_surfaces_stall_as_divergence() {
    let _g = exclusive();
    let (c, _) = inverter_rc();
    faults::inject_tran_newton_stalls(1);
    let err = c.transient(&TranOptions::new(1e-12, 200e-12)).unwrap_err();
    faults::reset();
    match err {
        CircuitError::NewtonDiverged {
            time,
            residual,
            damping_limit,
            ..
        } => {
            assert!(time > 0.0, "time = {time}");
            assert!(residual.is_infinite());
            assert!(damping_limit.is_infinite());
        }
        other => panic!("expected divergence, got {other:?}"),
    }
}

#[test]
fn persistent_stalls_underflow_the_step_floor() {
    let _g = exclusive();
    let (c, _) = inverter_rc();
    faults::inject_tran_newton_stalls(1_000);
    let err = c
        .transient(&TranOptions::new(1e-12, 200e-12).adaptive())
        .unwrap_err();
    faults::reset();
    match err {
        CircuitError::StepUnderflow { dt_min, .. } => {
            assert!(dt_min > 0.0 && dt_min < 1e-12);
        }
        other => panic!("expected step underflow, got {other:?}"),
    }
}

#[test]
fn singular_jacobian_fails_plain_dc_as_divergence() {
    let _g = exclusive();
    let (c, _) = inverter_rc();
    faults::inject_singular_jacobians(1);
    let err = c.dc_op().unwrap_err();
    faults::reset();
    match err {
        CircuitError::NewtonDiverged {
            iterations,
            residual,
            ..
        } => {
            assert_eq!(iterations, 1);
            assert!(residual.is_infinite());
        }
        other => panic!("expected divergence, got {other:?}"),
    }
}

#[test]
fn singular_jacobian_mid_ladder_lets_later_rungs_run() {
    let _g = exclusive();
    let (c, out) = inverter_rc();
    // The first update of the plain rung and of the first gmin step.
    faults::inject_singular_jacobians(2);
    let (op, report) = c.dc_op_with(&RescuePolicy::full()).unwrap();
    faults::reset();
    assert_eq!(report.rungs[0].rung, RescueRung::PlainNewton);
    assert_eq!(report.rungs[1].rung, RescueRung::GminStepping);
    assert!(!report.rungs[0].converged && !report.rungs[1].converged);
    assert_eq!(report.converged_by, RescueRung::SourceStepping);
    let plain = c.dc_op().unwrap();
    assert!(
        (op.voltage(out) - plain.voltage(out)).abs() < 1e-6,
        "rescued {} vs plain {}",
        op.voltage(out),
        plain.voltage(out)
    );
}

#[test]
fn adaptive_controller_rejects_singular_jacobian_steps() {
    let _g = exclusive();
    let (c, out) = inverter_rc();
    // Start from zero state so the seeding DC solve does not use up
    // the injected faults.
    let mut opts = TranOptions::new(1e-12, 200e-12).adaptive();
    opts.start_from_dc = false;
    faults::inject_singular_jacobians(3);
    let res = c.transient(&opts).unwrap();
    faults::reset();
    assert!(
        res.steps_rejected >= 3,
        "rejected only {} steps",
        res.steps_rejected
    );
    assert!(res.voltage(out).last_value() < 0.1);
}
