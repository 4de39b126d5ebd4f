//! DC rescue-ladder coverage across solver backends (run with
//! `--features solver-faults`).
//!
//! The PR 2 rescue tests exercised the ladder only under the default
//! (dense) solver. The ladder's escalation decisions must not depend on
//! which linear-algebra backend factorizes the Jacobian, so these tests
//! force the plain rung to fail and assert the **rung trajectory** —
//! which rungs were attempted, in which order, with which outcomes — is
//! identical under `Dense`, `Sparse`, and `Auto`, and that the rescued
//! operating points agree. (The iterative/matrix-free stack has its own
//! ladder, `solve_with_rescue`; its backend coverage lives in
//! `chaos_iterative.rs` and the loopind resilience suite.)

#![cfg(feature = "solver-faults")]

use ind101_circuit::{
    faults, Circuit, InverterParams, NodeId, RescuePolicy, RescueReport, RescueRung, SolverBackend,
    SourceWave,
};
use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    let g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    faults::reset();
    g
}

/// Nonlinear testbench big enough that `Sparse` genuinely takes the
/// sparse path (the small-dense floor is 48 unknowns): an inverter
/// driving a 60-section RC ladder.
fn inverter_ladder(backend: SolverBackend) -> (Circuit, NodeId) {
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let inp = c.node("in");
    let out = c.node("out");
    c.vsrc(vdd, Circuit::GND, SourceWave::dc(1.8));
    c.vsrc(inp, Circuit::GND, SourceWave::dc(0.0));
    c.inverter(inp, out, vdd, Circuit::GND, InverterParams::default());
    let mut prev = out;
    for i in 0..60 {
        let nd = c.node(format!("lad{i}"));
        c.resistor(prev, nd, 50.0);
        c.capacitor(nd, Circuit::GND, 10e-15);
        prev = nd;
    }
    // Light load to ground so the ladder tail is well-conditioned.
    c.resistor(prev, Circuit::GND, 1e6);
    c.set_solver_backend(backend);
    (c, out)
}

/// The backend-independent shape of a rescue run: rung kinds, per-rung
/// convergence, and the rung that finally converged.
fn trajectory(report: &RescueReport) -> (Vec<(RescueRung, bool)>, RescueRung) {
    (
        report.rungs.iter().map(|t| (t.rung, t.converged)).collect(),
        report.converged_by,
    )
}

#[test]
fn plain_newton_trajectory_is_backend_independent() {
    let _g = exclusive();
    let mut runs = Vec::new();
    for backend in [SolverBackend::Dense, SolverBackend::Sparse, SolverBackend::Auto] {
        let (c, out) = inverter_ladder(backend);
        let (op, report) = c.dc_op_with(&RescuePolicy::full(), None).unwrap();
        assert!(report.plain_sufficed(), "{backend:?}: {}", report.summary());
        runs.push((backend, trajectory(&report), op.voltage(out)));
    }
    let (_, ref base_traj, base_v) = runs[0];
    for (backend, traj, v) in &runs[1..] {
        assert_eq!(traj, base_traj, "trajectory diverged under {backend:?}");
        assert!(
            (v - base_v).abs() < 1e-6,
            "{backend:?}: V(out) {v} vs dense {base_v}"
        );
    }
}

#[test]
fn forced_failure_escalates_identically_across_backends() {
    let _g = exclusive();
    let mut runs = Vec::new();
    for backend in [SolverBackend::Dense, SolverBackend::Sparse, SolverBackend::Auto] {
        let (c, out) = inverter_ladder(backend);
        faults::force_plain_newton_failure(true);
        let solved = c.dc_op_with(&RescuePolicy::full(), None);
        faults::reset();
        let (op, report) = solved.unwrap_or_else(|e| panic!("{backend:?}: {e}"));
        assert!(!report.plain_sufficed(), "{backend:?}");
        assert!(!report.rungs[0].converged, "{backend:?}");
        assert_eq!(report.converged_by, RescueRung::GminStepping, "{backend:?}");
        runs.push((backend, trajectory(&report), op.voltage(out)));

        // The rescued point matches this backend's own unforced solve.
        let plain = {
            let (c2, _) = inverter_ladder(backend);
            c2.dc_op().unwrap().voltage(out)
        };
        assert!(
            (op.voltage(out) - plain).abs() < 1e-6,
            "{backend:?}: rescued {} vs plain {plain}",
            op.voltage(out)
        );
    }
    let (_, ref base_traj, base_v) = runs[0];
    for (backend, traj, v) in &runs[1..] {
        assert_eq!(traj, base_traj, "trajectory diverged under {backend:?}");
        assert!((v - base_v).abs() < 1e-6, "{backend:?}: {v} vs {base_v}");
    }
}

#[test]
fn gmin_disabled_falls_through_to_source_stepping_on_every_backend() {
    let _g = exclusive();
    let policy = RescuePolicy {
        gmin_stepping: false,
        ..RescuePolicy::full()
    };
    let mut trajs = Vec::new();
    for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
        let (c, _) = inverter_ladder(backend);
        faults::force_plain_newton_failure(true);
        let solved = c.dc_op_with(&policy, None);
        faults::reset();
        let (_, report) = solved.unwrap_or_else(|e| panic!("{backend:?}: {e}"));
        assert_eq!(
            report.converged_by,
            RescueRung::SourceStepping,
            "{backend:?}: {}",
            report.summary()
        );
        trajs.push(trajectory(&report));
    }
    assert_eq!(trajs[0], trajs[1], "trajectory diverged across backends");
}
