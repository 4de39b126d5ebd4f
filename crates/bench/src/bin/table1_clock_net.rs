//! TAB1 — reproduces the paper's Table 1: "Simulation of global clock
//! net" comparing PEEC (RC), PEEC (RLC), the accelerated PEEC variant
//! and LOOP (RLC) on element counts, worst delay, worst skew, and
//! run time.
//!
//! ```text
//! cargo run --release -p ind101-bench --bin table1_clock_net \
//!     [small|medium|large] [--threads N] [--verify]
//! ```
//!
//! With `--verify`, the pre-simulation verification pass (netlist ERC +
//! passivity audit) gates the flows: a rejected model aborts the run
//! with the audit summary instead of producing garbage waveforms.

use ind101_bench::flows::{run_loop_flow, run_peec_block_diagonal_flow_with, run_peec_flow};
use ind101_bench::table::{eng, TextTable};
use ind101_bench::{
    clock_case_with, parallel_config_from_args, verify_clock_case, verify_flag_from_args, Scale,
};
use ind101_core::InductanceMode;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = parallel_config_from_args(&mut args);
    let verify = verify_flag_from_args(&mut args);
    let scale = match args.first().map(String::as_str) {
        Some("small") | None => Scale::Small,
        Some("medium") => Scale::Medium,
        Some("large") => Scale::Large,
        Some(other) => {
            eprintln!("unknown scale {other:?}; use small|medium|large [--threads N]");
            std::process::exit(2);
        }
    };
    let dt = 2e-12;
    let t_stop = 900e-12;
    println!(
        "== Table 1: simulation of global clock net (scale {scale:?}, {} extraction threads) ==",
        cfg.threads
    );
    let case = clock_case_with(scale, &cfg);
    println!(
        "testcase: {} segments, {} vias, {} nets, {} mutual terms\n",
        case.par.len(),
        case.par.via_res.len(),
        case.par.layout.nets().len(),
        case.par.partial_l.mutual_count(),
    );

    if verify {
        match verify_clock_case(&case) {
            Ok(report) => println!(
                "verification: model accepted ({} warning(s))\n",
                report.warnings()
            ),
            Err(e) => {
                eprintln!("verification: {e}");
                std::process::exit(1);
            }
        }
    }

    let flows = vec![
        run_peec_flow(&case, "PEEC (RC)", InductanceMode::None, dt, t_stop)
            .expect("PEEC RC flow"),
        run_peec_flow(&case, "PEEC (RLC)", InductanceMode::Full, dt, t_stop)
            .expect("PEEC RLC flow"),
        run_peec_block_diagonal_flow_with(&case, 3, 2, dt, t_stop, &cfg)
            .expect("accelerated flow"),
        run_loop_flow(&case, 2.5e9, dt, t_stop).expect("LOOP flow"),
    ];

    let mut t = TextTable::new(vec![
        "model",
        "Num. of R",
        "Num. of C",
        "Num. of L",
        "# mutuals",
        "Worst delay",
        "Worst skew",
        "Run-time",
    ]);
    for f in &flows {
        t.row(vec![
            f.name.clone(),
            f.counts.resistors.to_string(),
            f.counts.capacitors.to_string(),
            f.counts.inductors.to_string(),
            f.counts.mutuals.to_string(),
            eng(f.worst_delay_s, "s"),
            eng(f.worst_skew_s, "s"),
            format!("{:.2}s", f.runtime_s),
        ]);
    }
    println!("{}", t.render());

    let rc = &flows[0];
    let rlc = &flows[1];
    println!(
        "inductance delay impact: RLC − RC = {} ({:+.1} %)",
        eng(rlc.worst_delay_s - rc.worst_delay_s, "s"),
        100.0 * (rlc.worst_delay_s / rc.worst_delay_s - 1.0)
    );
    println!(
        "paper shape check: RLC > RC delay [{}]; LOOP counts ≪ PEEC [{}]; LOOP faster than PEEC RLC [{}]",
        ok(rlc.worst_delay_s > rc.worst_delay_s),
        ok(flows[3].counts.inductors < rlc.counts.inductors),
        ok(flows[3].runtime_s < rlc.runtime_s),
    );
}

fn ok(b: bool) -> &'static str {
    if b {
        "ok"
    } else {
        "MISMATCH"
    }
}
