//! Mirror tests: the benchmark's own composition of the Table-1,
//! Figure-3 and Section-4 flows, run at Small scale, reproduces the
//! repository's committed goldens (`tests/golden/*.json`) within their
//! stored tolerances. The root test suite ties those goldens to the
//! shipped harness flows, so this ties the benchmark to the same
//! numbers.

use flowbench::flows::{accel_flow, fig3_sweep, loop_flow, peec_flow, testbench_spec};
use flowbench::geometry::{receiver_cap_f, ClockCase, ClockGeometry};
use flowbench::reference::{parse_reference, rel_err, CANONICAL_SEED};
use flowbench::sec4::{part_a, TRUNC_SCAN};
use flowbench::trace::Tracer;
use ind101_core::InductanceMode;
use ind101_sparsify::{matrix_error, stability_report};

fn small() -> ClockCase {
    ClockGeometry::small().extract(&mut Tracer::new(false))
}

fn check_golden(name: &str, got: &[(&str, f64)]) {
    let path = format!("{}/../tests/golden/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let golden = parse_reference(&text).unwrap();
    let mut failures = Vec::new();
    for (key, value) in got {
        let Some(&(want, rtol)) = golden.get(*key) else {
            failures.push(format!("{name}.{key}: not in the golden file"));
            continue;
        };
        if rel_err(*value, want) > rtol {
            failures.push(format!(
                "{name}.{key}: got {value:e}, golden {want:e} (rtol {rtol:e})"
            ));
        }
    }
    for key in golden.keys() {
        if !got.iter().any(|(k, _)| k == key) {
            failures.push(format!("{name}.{key}: golden entry not produced"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn table1_flows_match_golden() {
    let case = small();
    let spec = testbench_spec(receiver_cap_f(CANONICAL_SEED));
    let tr = &mut Tracer::new(false);
    let rc = peec_flow(tr, &case.par, InductanceMode::None, &spec, "rc").unwrap();
    let rlc = peec_flow(tr, &case.par, InductanceMode::Full, &spec, "rlc").unwrap();
    let accel = accel_flow(tr, &case, &spec).unwrap();
    let lp = loop_flow(tr, &case, &spec).unwrap();
    check_golden(
        "table1",
        &[
            ("peec_rc_delay_s", rc.worst_delay_s),
            ("peec_rc_skew_s", rc.worst_skew_s),
            ("peec_rlc_delay_s", rlc.worst_delay_s),
            ("peec_rlc_skew_s", rlc.worst_skew_s),
            ("accel_delay_s", accel.worst_delay_s),
            ("accel_skew_s", accel.worst_skew_s),
            ("loop_delay_s", lp.flow.worst_delay_s),
            ("loop_skew_s", lp.flow.worst_skew_s),
            ("peec_rlc_mutuals", rlc.mutuals as f64),
            ("accel_mutuals", accel.mutuals as f64),
        ],
    );
}

#[test]
fn fig3_sweep_matches_golden() {
    let case = small();
    let (ext, ladder) = fig3_sweep(&mut Tracer::new(false), &case.par, &[1e8, 1e9, 2e10]).unwrap();
    let ladder = ladder.unwrap();
    check_golden(
        "fig3",
        &[
            ("r_ohm_100mhz", ext.r_ohm[0]),
            ("r_ohm_1ghz", ext.r_ohm[1]),
            ("r_ohm_20ghz", ext.r_ohm[2]),
            ("l_h_100mhz", ext.l_h[0]),
            ("l_h_1ghz", ext.l_h[1]),
            ("l_h_20ghz", ext.l_h[2]),
            ("ladder_r0_ohm", ladder.r0),
            ("ladder_l0_h", ladder.l0),
            ("ladder_r1_ohm", ladder.r1),
            ("ladder_l1_h", ladder.l1),
        ],
    );
}

#[test]
fn sec4_sparsifiers_match_golden() {
    let case = small();
    let l = case.par.partial_l.matrix();
    let a = part_a(&mut Tracer::new(false), &case.par);
    let at = TRUNC_SCAN.iter().position(|&k| k == 0.2).unwrap();
    let trunc = &a.scan[at].1;
    let (_, bd) = a
        .others
        .iter()
        .find(|(tag, _)| *tag == "block_diagonal")
        .unwrap();
    let (k_retention, k_eff) = a.k.as_ref().unwrap();
    check_golden(
        "sec4",
        &[
            ("full_min_eig_h", stability_report(l).min_eigenvalue),
            ("trunc_retention", trunc.stats.retention()),
            ("trunc_error", matrix_error(l, &trunc.matrix)),
            ("blockdiag_retention", bd.stats.retention()),
            ("blockdiag_error", matrix_error(l, &bd.matrix)),
            ("k_retention", *k_retention),
            ("k_error", matrix_error(l, &k_eff.matrix)),
        ],
    );
}
