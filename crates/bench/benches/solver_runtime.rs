//! Criterion benchmark of the simulation engines: sparse-MNA transient
//! (RC grid), dense-MNA transient (coupled RLC), PRIMA reduction +
//! reduced transient, and the SPD/Cholesky combined-technique solver.

use criterion::{criterion_group, criterion_main, Criterion};
use ind101_bench::{clock_case, Scale};
use ind101_circuit::{Circuit, SourceWave, TranOptions};
use ind101_core::{InductanceMode, PeecModel};
use ind101_mor::spd::SpdTransient;
use ind101_mor::{prima, PrimaOptions};

fn bench_solvers(c: &mut Criterion) {
    let case = clock_case(Scale::Small);
    let dt = 4e-12;
    let t_stop = 200e-12;

    let mut g = c.benchmark_group("solver");
    g.sample_size(10);

    // RC model — sparse backend (AMD-ordered KLU-class LU).
    let rc_model = PeecModel::build(&case.par, InductanceMode::None).expect("rc");
    g.bench_function("transient_rc_sparse", |b| {
        b.iter(|| {
            let mut ckt = rc_model.circuit.clone();
            let drv = rc_model.port_node(&case.par, "clk_drv").expect("port");
            ckt.vsrc(drv, Circuit::GND, SourceWave::step(0.0, 1.8, 20e-12, 30e-12));
            let mut opts = TranOptions::new(dt, t_stop);
            opts.record_stride = 8;
            ckt.transient(&opts).expect("tran")
        })
    });

    // RLC model — dense backend (coupled inductor block).
    let rlc_model = PeecModel::build(&case.par, InductanceMode::Full).expect("rlc");
    g.bench_function("transient_rlc_dense", |b| {
        b.iter(|| {
            let mut ckt = rlc_model.circuit.clone();
            let drv = rlc_model.port_node(&case.par, "clk_drv").expect("port");
            ckt.vsrc(drv, Circuit::GND, SourceWave::step(0.0, 1.8, 20e-12, 30e-12));
            let mut opts = TranOptions::new(dt, t_stop);
            opts.record_stride = 8;
            ckt.transient(&opts).expect("tran")
        })
    });

    // PRIMA: reduction of the RLC linear network driven by a current
    // probe at the driver, then the reduced transient.
    let mut probe_ckt = rlc_model.circuit.clone();
    let drv = rlc_model.port_node(&case.par, "clk_drv").expect("port");
    probe_ckt.isrc(Circuit::GND, drv, SourceWave::step(0.0, 1e-3, 20e-12, 30e-12));
    let sys = probe_ckt.mna_system().expect("linear");
    let outputs = vec![sys.node_index(drv).expect("idx")];
    g.bench_function("prima_reduce", |b| {
        b.iter(|| prima(&sys, &outputs, &PrimaOptions::default()).expect("prima"))
    });
    let rm = prima(&sys, &outputs, &PrimaOptions::default()).expect("prima");
    g.bench_function("prima_reduced_transient", |b| {
        b.iter(|| {
            rm.transient(
                &[SourceWave::step(0.0, 1e-3, 20e-12, 30e-12)],
                dt,
                t_stop,
            )
            .expect("reduced tran")
        })
    });

    // SPD combined-technique solver on the same current-driven network.
    g.bench_function("spd_cholesky_transient", |b| {
        let spd = SpdTransient::build(&probe_ckt, dt).expect("spd build");
        b.iter(|| spd.run(&[drv], dt, t_stop).expect("spd run"))
    });
    g.finish();
}

criterion_group!(benches, bench_solvers);
criterion_main!(benches);
