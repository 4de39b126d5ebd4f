//! SEC5 — quantifies the loop methodology's documented error source:
//! "The inductance extraction neglects the contribution of capacitance
//! to current distribution. This can lead to inaccuracies, since the
//! interconnect and device decoupling capacitances strongly affect
//! current return paths."
//!
//! We sweep the decoupling-capacitance density of the PEEC reference:
//! the loop model (whose extraction never sees the decap) keeps the
//! same delay prediction, while the true (PEEC) delay shifts — the gap
//! is the methodology's error.

use ind101_bench::flows::run_loop_flow;
use ind101_bench::table::TextTable;
use ind101_bench::{clock_case_with, parallel_config_from_args, Scale};
use ind101_core::testbench::{build_testbench, TestbenchSpec};
use ind101_core::InductanceMode;
use ind101_circuit::{measure, TranOptions};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = parallel_config_from_args(&mut args);
    println!(
        "== Section 5: loop-model error vs decoupling capacitance ({} threads) ==",
        cfg.threads
    );
    let case = clock_case_with(Scale::Small, &cfg);
    let dt = 2e-12;
    let t_stop = 900e-12;
    // The loop model is extracted once; it cannot react to decap.
    let lp = run_loop_flow(&case, 2.5e9, dt, t_stop).expect("loop flow");

    let mut t = TextTable::new(vec![
        "decap total",
        "PEEC delay (ps)",
        "LOOP delay (ps)",
        "loop error (%)",
    ]);
    let mut errors = Vec::new();
    for decap_pf in [0.0, 5.0, 20.0, 60.0] {
        let spec = TestbenchSpec {
            decap_total_f: decap_pf * 1e-12,
            ..ind101_bench::flows::default_spec()
        };
        let tb = build_testbench(&case.par, InductanceMode::Full, &spec).expect("testbench");
        let res = tb
            .circuit
            .transient(&TranOptions::new(dt, t_stop))
            .expect("transient");
        let input = res.voltage(tb.input);
        let mut worst = 0.0f64;
        for (_, node) in &tb.sinks {
            let d = measure::delay_50(&input, &res.voltage(*node), 0.0, spec.vdd)
                .unwrap_or(f64::NAN);
            worst = worst.max(d);
        }
        let err = 100.0 * (lp.worst_delay_s - worst) / worst;
        errors.push(err.abs());
        t.row(vec![
            format!("{decap_pf:.0} pF"),
            format!("{:.1}", worst * 1e12),
            format!("{:.1}", lp.worst_delay_s * 1e12),
            format!("{err:+.1}"),
        ]);
    }
    println!("{}", t.render());
    println!(
        "shape check: loop error varies with decap (extraction is blind to \
         it) [{}]",
        if errors
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), &e| (lo.min(e), hi.max(e)))
            .1
            - errors.iter().fold(f64::INFINITY, |lo, &e| lo.min(e))
            > 0.5
        {
            "ok"
        } else {
            "MISMATCH"
        }
    );
}
