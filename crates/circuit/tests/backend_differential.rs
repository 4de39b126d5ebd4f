//! Dense-vs-sparse backend differential suite.
//!
//! The dense LU path is the repo's long-standing oracle; this suite
//! forces the same analyses through [`SolverBackend::Sparse`] and
//! requires agreement to 1e-10 *relative* on every unknown, across the
//! paper's testbench generators (clock-over-grid, P/G grid, RC ladder)
//! and the DC convergence-rescue ladder. Circuits are sized above the
//! `SMALL_DENSE` routing floor so the sparse factorization genuinely
//! runs — a tiny circuit would silently compare dense against dense.

use ind101_bench::{clock_case, Scale};
use ind101_circuit::{
    AcOptions, Circuit, MosPolarity, Mosfet, NodeId, RescuePolicy, SolverBackend, SourceWave,
    TranOptions,
};
use ind101_core::testbench::{build_testbench, TestbenchSpec};
use ind101_core::{InductanceMode, PeecModel, PeecParasitics};
use ind101_geom::generators::{generate_power_grid, PowerGridSpec};
use ind101_geom::{um, NetKind, PortKind, Technology};

/// Required agreement between backends, relative to the solution scale.
const REL_TOL: f64 = 1e-10;

/// Circuits must exceed the solver's small-system dense floor (48
/// unknowns) for the sparse path to engage at all.
const MIN_NODES: usize = 60;

fn with_backend(c: &Circuit, backend: SolverBackend) -> Circuit {
    let mut c = c.clone();
    c.set_solver_backend(backend);
    c
}

fn assert_vectors_close(label: &str, dense: &[f64], sparse: &[f64]) {
    assert_eq!(dense.len(), sparse.len(), "{label}: length mismatch");
    let scale = dense.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    for (i, (d, s)) in dense.iter().zip(sparse).enumerate() {
        assert!(
            (d - s).abs() <= REL_TOL * scale,
            "{label}: unknown {i} diverged: dense {d} vs sparse {s} (scale {scale})"
        );
    }
}

/// Compares two transient results sample-by-sample over every node.
fn assert_transients_close(label: &str, c: &Circuit, dense: &ind101_circuit::TranResult, sparse: &ind101_circuit::TranResult) {
    assert_eq!(
        dense.time(),
        sparse.time(),
        "{label}: accepted time grids differ between backends"
    );
    for i in 1..c.num_nodes() {
        let td = dense.voltage(NodeId(i));
        let ts = sparse.voltage(NodeId(i));
        assert_vectors_close(&format!("{label}: node {i}"), &td.values, &ts.values);
    }
}

fn assert_ac_close(label: &str, c: &Circuit, n_freqs: usize, dense: &ind101_circuit::AcResult, sparse: &ind101_circuit::AcResult) {
    for i in 1..c.num_nodes() {
        let vd = dense.voltage_sweep(NodeId(i));
        let vs = sparse.voltage_sweep(NodeId(i));
        assert_eq!(vd.len(), n_freqs, "{label}: sweep length");
        let scale = vd.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for (k, (d, s)) in vd.iter().zip(&vs).enumerate() {
            assert!(
                (*d - *s).abs() <= REL_TOL * scale,
                "{label}: node {i} freq {k} diverged: dense {d:?} vs sparse {s:?}"
            );
        }
    }
}

/// Runs dc / fixed-trap / adaptive transients under both backends and
/// cross-checks them. `dt`/`t_stop` in seconds.
fn differential_dc_and_tran(label: &str, c: &Circuit, dt: f64, t_stop: f64) {
    assert!(
        c.num_nodes() > MIN_NODES,
        "{label}: testcase too small ({} nodes) to exercise the sparse path",
        c.num_nodes()
    );
    let cd = with_backend(c, SolverBackend::Dense);
    let cs = with_backend(c, SolverBackend::Sparse);

    let opd = cd.dc_op().expect("dense dc_op");
    let ops = cs.dc_op().expect("sparse dc_op");
    assert_vectors_close(&format!("{label}: dc_op"), opd.unknowns(), ops.unknowns());

    let fixed = TranOptions::new(dt, t_stop);
    let rd = cd.transient(&fixed).expect("dense fixed transient");
    let rs = cs.transient(&fixed).expect("sparse fixed transient");
    assert_transients_close(&format!("{label}: trap"), c, &rd, &rs);

    let adaptive = TranOptions::new(dt, t_stop).adaptive();
    let rd = cd.transient(&adaptive).expect("dense adaptive transient");
    let rs = cs.transient(&adaptive).expect("sparse adaptive transient");
    assert_transients_close(&format!("{label}: adaptive"), c, &rd, &rs);
}

/// Clock-spine-over-power-grid testbench (the paper's main testcase),
/// full partial-inductance coupling and a nonlinear inverter driver.
#[test]
fn clock_net_testbench_agrees_across_backends() {
    let case = clock_case(Scale::Small);
    let tb = build_testbench(&case.par, InductanceMode::Full, &TestbenchSpec::default())
        .expect("testbench");
    differential_dc_and_tran("clock net", &tb.circuit, 10e-12, 600e-12);
}

/// Stand-alone P/G grid: RLC interconnect, ideal pads, a DC+AC load
/// drawn from the far corner of the mesh. Exercises the AC sweep's
/// shared symbolic pattern across parallel frequency blocks.
#[test]
fn power_grid_agrees_across_backends() {
    let tech = Technology::example_copper_6lm();
    let spec = PowerGridSpec {
        width_nm: um(200),
        height_nm: um(200),
        pitch_nm: um(50),
        ..PowerGridSpec::default()
    };
    let layout = generate_power_grid(&tech, &spec);
    let par = PeecParasitics::extract(&layout, um(60));
    let model = PeecModel::build(&par, InductanceMode::Full).expect("model");
    let mut c = model.circuit.clone();
    for port in layout.ports() {
        let Some(node) = model.node(port.node) else {
            continue;
        };
        match port.kind {
            PortKind::PowerPad => c.vsrc(node, Circuit::GND, SourceWave::dc(1.8)),
            PortKind::GroundPad => c.resistor(node, Circuit::GND, 1e-3),
            _ => {}
        }
    }
    let power_nodes = model.nodes_of_kind(&par, NetKind::Power);
    let load = *power_nodes.last().expect("power nodes");
    c.isrc_ac(load, Circuit::GND, SourceWave::dc(5e-3), 1e-3);

    differential_dc_and_tran("pg grid", &c, 5e-12, 300e-12);

    let opts = AcOptions::log_sweep(1e8, 1e10, 3);
    let cd = with_backend(&c, SolverBackend::Dense);
    let cs = with_backend(&c, SolverBackend::Sparse);
    let rd = cd.ac_sweep(&opts).expect("dense ac");
    let rs = cs.ac_sweep(&opts).expect("sparse ac");
    assert_ac_close("pg grid: ac", &c, opts.freqs_hz.len(), &rd, &rs);
}

/// Distributed RC ladder (the paper's lumped-line baseline): linear,
/// with the AC source row landing at the far end of the ordering.
#[test]
fn rc_ladder_agrees_across_backends() {
    const SECTIONS: usize = 150;
    let mut c = Circuit::new();
    let inp = c.node("in");
    c.vsrc_ac(inp, Circuit::GND, SourceWave::step(0.4, 1.8, 50e-12, 30e-12), 1.0);
    let mut prev = inp;
    for k in 0..SECTIONS {
        let n = c.node(format!("n{k}"));
        c.resistor(prev, n, 25.0);
        c.capacitor(n, Circuit::GND, 4e-15);
        prev = n;
    }
    // Light resistive termination so DC carries real current.
    c.resistor(prev, Circuit::GND, 10_000.0);

    differential_dc_and_tran("rc ladder", &c, 10e-12, 1e-9);

    let opts = AcOptions::log_sweep(1e7, 1e10, 2);
    let cd = with_backend(&c, SolverBackend::Dense);
    let cs = with_backend(&c, SolverBackend::Sparse);
    let rd = cd.ac_sweep(&opts).expect("dense ac");
    let rs = cs.ac_sweep(&opts).expect("sparse ac");
    assert_ac_close("rc ladder: ac", &c, opts.freqs_hz.len(), &rd, &rs);
}

/// Far-operating-point circuit scaled past the dense floor: plain
/// Newton diverges and the rescue ladder (gmin + source stepping) must
/// reach the same ~kilovolt operating point under both backends.
#[test]
fn rescue_ladder_agrees_across_backends() {
    const CHAIN: usize = 64;
    let build = || {
        let mut c = Circuit::new();
        let hi = c.node("hi");
        let g = c.node("g");
        c.isrc(Circuit::GND, hi, SourceWave::dc(1.0));
        c.resistor(hi, Circuit::GND, 1_000.0);
        c.vsrc(g, Circuit::GND, SourceWave::dc(1.2));
        c.mosfet(Mosfet {
            d: hi,
            g,
            s: Circuit::GND,
            polarity: MosPolarity::Nmos,
            beta: 1e-9,
            vt: 0.5,
            lambda: 0.0,
        });
        // A resistive tail hanging off the high node pushes the system
        // past SMALL_DENSE without changing its pathological character.
        let mut prev = hi;
        for k in 0..CHAIN {
            let n = c.node(format!("tail{k}"));
            c.resistor(prev, n, 1_000.0);
            prev = n;
        }
        c.resistor(prev, Circuit::GND, 1_000.0);
        c
    };
    let c = build();
    assert!(c.num_nodes() > MIN_NODES);

    // Plain Newton must still fail — otherwise this stops testing the
    // rescue rungs at all.
    assert!(c.dc_op().is_err(), "expected plain Newton divergence");

    let cd = with_backend(&c, SolverBackend::Dense);
    let cs = with_backend(&c, SolverBackend::Sparse);
    let (opd, repd) = cd.dc_op_with(&RescuePolicy::full(), None).expect("dense rescue");
    let (ops, reps) = cs.dc_op_with(&RescuePolicy::full(), None).expect("sparse rescue");
    assert!(!repd.plain_sufficed() && !reps.plain_sufficed());
    assert_vectors_close("rescue dc_op", opd.unknowns(), ops.unknowns());
    // The ladder must have climbed identically: same rungs attempted,
    // same rung converging.
    let rungs = |r: &ind101_circuit::RescueReport| {
        r.rungs
            .iter()
            .map(|t| (t.rung, t.converged))
            .collect::<Vec<_>>()
    };
    assert_eq!(rungs(&repd), rungs(&reps), "rescue trajectories differ");
}

/// The `Auto` backend must agree with both forced backends — whatever
/// it picks per system, the numbers cannot drift.
#[test]
fn auto_backend_matches_dense_on_clock_net() {
    let case = clock_case(Scale::Small);
    let tb = build_testbench(&case.par, InductanceMode::Full, &TestbenchSpec::default())
        .expect("testbench");
    let cd = with_backend(&tb.circuit, SolverBackend::Dense);
    let ca = with_backend(&tb.circuit, SolverBackend::Auto);
    let opd = cd.dc_op().expect("dense dc_op");
    let opa = ca.dc_op().expect("auto dc_op");
    assert_vectors_close("auto dc_op", opd.unknowns(), opa.unknowns());
}
