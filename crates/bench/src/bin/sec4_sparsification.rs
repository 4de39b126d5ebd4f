//! SEC4 — quantifies the paper's Section 4 comparison of partial-
//! inductance sparsification techniques: retention, matrix error,
//! stability (positive definiteness) and — for the unstable case — the
//! transient blow-up that "can generate energy".
//!
//! Part A compares the techniques on the clock-over-grid matrix.
//! Part B demonstrates the truncation failure mode on a long
//! tightly-coupled bus, where relative truncation provably destroys
//! positive definiteness.
//!
//! With `--verify`, each sparsified matrix additionally goes through
//! the static passivity auditor (`ind101-verify`), printing the
//! per-screen verdict — including the broken Cholesky pivot and the
//! verified diagonal repair shift for non-passive outputs — before any
//! transient runs.

use ind101_bench::scenarios::{sec4_bus_circuit, sec4_bus_inductance};
use ind101_bench::table::TextTable;
use ind101_bench::{clock_case, Scale};
use ind101_circuit::TranOptions;
use ind101_core::testbench::{build_testbench, TestbenchSpec};
use ind101_core::InductanceMode;
use ind101_geom::Technology;
use ind101_bench::{parallel_config_from_args, verify_flag_from_args};
use ind101_verify::{audit_sparsified, MatrixAuditConfig};
use ind101_numeric::ParallelConfig;
use ind101_sparsify::block_diagonal::{block_diagonal_with, sections_by_signal_distance};
use ind101_sparsify::halo::halo_sparsify_with;
use ind101_sparsify::hierarchical::{hierarchical_parameter_count, hierarchical_sparsify};
use ind101_sparsify::kmatrix::k_sparsify;
use ind101_sparsify::shell::shell_auto_radius;
use ind101_sparsify::truncation::truncate_relative_with;
use ind101_sparsify::{matrix_error, stability_report, Sparsified};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = parallel_config_from_args(&mut args);
    let verify = verify_flag_from_args(&mut args);
    part_a(&cfg, verify);
    part_b(&cfg, verify);
}

/// Prints the static auditor verdict for one sparsifier output.
fn print_audit(s: &Sparsified) {
    let audit = audit_sparsified(s, &MatrixAuditConfig::default());
    if audit.passive {
        println!("  audit[{}]: passive", s.method);
        return;
    }
    let pivot = audit
        .failed_pivot
        .map_or("?".to_owned(), |(p, v)| format!("{p} ({v:.2e})"));
    let repair = audit
        .suggested_shift
        .map_or("none".to_owned(), |d| format!("+{d:.2e} H on the diagonal"));
    println!(
        "  audit[{}]: NON-PASSIVE — Cholesky pivot {pivot}, verified repair: {repair}",
        s.method
    );
}

fn part_a(cfg: &ParallelConfig, verify: bool) {
    println!(
        "== Section 4 (A): technique comparison on the clock/grid matrix ({} threads) ==",
        cfg.threads
    );
    let case = clock_case(Scale::Small);
    let l = &case.par.partial_l;
    let full = stability_report(l.matrix());
    println!(
        "full matrix: {} elements, {} mutual terms, min eig {:.3e} H (PD: {})\n",
        l.len(),
        l.mutual_count(),
        full.min_eigenvalue,
        full.positive_definite,
    );

    // Truncation threshold: scan for ~50 % retention.
    let trunc = [0.05, 0.1, 0.2, 0.3, 0.4]
        .iter()
        .map(|&k| truncate_relative_with(l, k, cfg))
        .min_by_key(|s| ((s.stats.retention() - 0.5).abs() * 1e6) as i64)
        .expect("non-empty scan");

    let mut methods: Vec<(Sparsified, String)> = Vec::new();
    let r = format!("{:.1}%", 100.0 * trunc.stats.retention());
    methods.push((trunc, r));
    let labels = sections_by_signal_distance(l, &case.par.layout, 3);
    let bd = block_diagonal_with(l, &labels, cfg);
    let r = format!("{:.1}%", 100.0 * bd.stats.retention());
    methods.push((bd, r));
    let (r0, shell) = shell_auto_radius(l, 0.6);
    println!("shell auto-radius selected r0 = {:.1} µm\n", r0 * 1e6);
    let r = format!("{:.1}%", 100.0 * shell.stats.retention());
    methods.push((shell, r));
    let halo = halo_sparsify_with(l, &case.par.layout, cfg);
    let r = format!("{:.1}%", 100.0 * halo.stats.retention());
    methods.push((halo, r));
    let h = hierarchical_sparsify(l, &labels);
    let params = hierarchical_parameter_count(&labels);
    let dense = l.len() * (l.len() + 1) / 2;
    let r = format!("{:.1}% params", 100.0 * params as f64 / dense as f64);
    methods.push((h, r));
    match k_sparsify(l, 0.02) {
        Ok(ks) => {
            // For the K method the *stamped* object is K itself; report
            // its sparsity (the effective L is dense by construction).
            let r = format!("{:.1}% (of K)", 100.0 * ks.k_stats.retention());
            methods.push((ks.effective_l, r));
        }
        Err(e) => println!("K-matrix inversion failed: {e}\n"),
    }

    let mut t = TextTable::new(vec![
        "method",
        "retention",
        "matrix err",
        "min eig (H)",
        "stable (PD)",
        "transient",
    ]);
    for (s, retention) in &methods {
        let rep = stability_report(&s.matrix);
        let tran = transient_outcome(&case, &s.matrix);
        t.row(vec![
            s.method.to_owned(),
            retention.clone(),
            format!("{:.3}", matrix_error(l.matrix(), &s.matrix)),
            format!("{:.3e}", rep.min_eigenvalue),
            rep.positive_definite.to_string(),
            tran,
        ]);
    }
    println!("{}", t.render());
    if verify {
        println!("static passivity audit (--verify):");
        for (s, _) in &methods {
            print_audit(s);
        }
        println!();
    }
}

/// Part B: the paper's warning, demonstrated. On a long bus, relative
/// truncation yields an indefinite matrix; simulating it generates
/// energy and the waveforms blow up, while the full matrix is passive.
fn part_b(cfg: &ParallelConfig, verify: bool) {
    println!("\n== Section 4 (B): truncation instability on a long bus ==");
    let tech = Technology::example_copper_6lm();
    let l = sec4_bus_inductance(&tech);
    // Find a threshold that destroys positive definiteness.
    let mut unstable = None;
    for k_min in [0.3, 0.4, 0.5, 0.6, 0.7, 0.8] {
        let s = truncate_relative_with(&l, k_min, cfg);
        let rep = stability_report(&s.matrix);
        if s.stats.dropped > 0 && !rep.positive_definite {
            unstable = Some((k_min, s, rep));
            break;
        }
    }
    let Some((k_min, s, rep)) = unstable else {
        println!("no unstable threshold found (unexpected for this bus)");
        return;
    };
    println!(
        "k_min = {k_min}: retention {:.1} %, min eig {:.3e} H → NOT positive definite",
        100.0 * s.stats.retention(),
        rep.min_eigenvalue
    );
    if verify {
        print_audit(&s);
    }
    let full_peak = bus_transient_peak(l.matrix());
    let trunc_peak = bus_transient_peak(&s.matrix);
    println!(
        "transient peak |v|: full matrix {:.2} V, truncated {}",
        full_peak,
        if trunc_peak.is_finite() && trunc_peak < 100.0 {
            format!("{trunc_peak:.2} V")
        } else {
            format!("{trunc_peak:.2e} V — the sparsified system GENERATES ENERGY")
        }
    );
    println!(
        "shape check: truncated system is active/unstable [{}]",
        if trunc_peak > 10.0 * full_peak { "ok" } else { "MISMATCH" }
    );
}

/// Drives bit 0 of the bus with all mutuals stamped from `m`; returns
/// the peak |v| across the far ends.
fn bus_transient_peak(m: &ind101_numeric::Matrix<f64>) -> f64 {
    // Shared scenario (also exported as a deck and differentially
    // tested): step into wire 0, everything else terminated.
    let Ok(sc) = sec4_bus_circuit(m, 0.0) else {
        return f64::INFINITY;
    };
    match sc.circuit.transient(&TranOptions::new(1e-12, 2e-9)) {
        Err(_) => f64::INFINITY,
        Ok(res) => sc
            .far_nodes
            .iter()
            .map(|&f| {
                let v = res.voltage(f);
                v.max().abs().max(v.min().abs())
            })
            .fold(0.0, f64::max),
    }
}

/// Simulates the sparsified model briefly and classifies the outcome.
fn transient_outcome(case: &ind101_bench::ClockCase, m: &ind101_numeric::Matrix<f64>) -> String {
    let mut par = case.par.clone();
    par.partial_l.set_matrix(m.clone());
    let Ok(tb) = build_testbench(&par, InductanceMode::Full, &TestbenchSpec::default()) else {
        return "build failed".to_owned();
    };
    match tb.circuit.transient(&TranOptions::new(2e-12, 500e-12)) {
        Err(e) => format!("solver error ({e:.0?})"),
        Ok(res) => {
            let mut peak = 0.0f64;
            for (_, node) in &tb.sinks {
                let v = res.voltage(*node);
                peak = peak.max(v.max().abs()).max(v.min().abs());
            }
            if !peak.is_finite() || peak > 10.0 {
                format!("UNSTABLE (peak {peak:.1e} V)")
            } else {
                format!("ok (peak {peak:.2} V)")
            }
        }
    }
}
