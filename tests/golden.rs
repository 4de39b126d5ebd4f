//! Golden-scalar regression harness for the paper's headline flows.
//!
//! Each test runs one flow in quick mode (Scale::Small, short
//! transients), extracts a handful of *key scalars* — delays, skews,
//! loop R/L, sparsification retentions — and diffs them against the
//! committed goldens in `tests/golden/*.json`, each value with its own
//! relative tolerance.
//!
//! To regenerate after an intentional numerical change:
//!
//! ```text
//! ./scripts/update_goldens.sh          # or:
//! UPDATE_GOLDEN=1 cargo test --test golden -- --test-threads=1
//! ```
//!
//! then review the diff of `tests/golden/` like any other code change.
//! Regeneration preserves hand-tuned per-key tolerances. Tolerances
//! default to 1e-6 relative — loose enough to absorb solver-backend
//! (dense vs sparse) and libm differences, tight enough to catch any
//! real modelling or extraction change. Structural counts carry zero
//! tolerance.

use ind101_bench::flows::{
    run_loop_flow, run_peec_block_diagonal_flow, run_peec_flow,
};
use ind101_bench::{clock_case, Scale};
use ind101_circuit::ResilienceOptions;
use ind101_core::InductanceMode;
use ind101_loop::{
    extract_loop_rl, extract_loop_rl_resilient, ExtractionBackend, LadderFit, LoopPortSpec,
};
use ind101_numeric::ParallelConfig;
use ind101_sparsify::block_diagonal::{block_diagonal, sections_by_signal_distance};
use ind101_sparsify::kmatrix::k_sparsify;
use ind101_sparsify::truncation::truncate_relative;
use ind101_sparsify::{matrix_error, stability_report};

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
const DEFAULT_RTOL: f64 = 1e-6;

/// One measured scalar with the tolerance to store on regeneration.
struct Scalar {
    key: &'static str,
    value: f64,
    rtol: f64,
}

fn val(key: &'static str, value: f64) -> Scalar {
    Scalar {
        key,
        value,
        rtol: DEFAULT_RTOL,
    }
}

/// Structural count — must match exactly.
fn count(key: &'static str, value: usize) -> Scalar {
    Scalar {
        key,
        value: value as f64,
        rtol: 0.0,
    }
}

// ---------------------------------------------------------------------
// Minimal flat-JSON golden codec. The files hold exactly
// `{"key": [value, rtol], ...}` — hand-rolled because the build is
// offline and the vendored tree has no serde_json.
// ---------------------------------------------------------------------

fn parse_goldens(text: &str, path: &str) -> Vec<(String, f64, f64)> {
    let mut out = Vec::new();
    let bytes: Vec<char> = text.chars().collect();
    let mut i = 0usize;
    let fail = |what: &str, at: usize| -> ! {
        panic!("malformed golden file {path} at char {at}: {what}")
    };
    let skip_ws = |i: &mut usize| {
        while *i < bytes.len() && bytes[*i].is_whitespace() {
            *i += 1;
        }
    };
    skip_ws(&mut i);
    if bytes.get(i) != Some(&'{') {
        fail("expected '{'", i);
    }
    i += 1;
    loop {
        skip_ws(&mut i);
        match bytes.get(i) {
            Some('}') => break,
            Some('"') => {}
            _ => fail("expected '\"' or '}'", i),
        }
        i += 1;
        let start = i;
        while i < bytes.len() && bytes[i] != '"' {
            i += 1;
        }
        let key: String = bytes[start..i].iter().collect();
        i += 1;
        skip_ws(&mut i);
        if bytes.get(i) != Some(&':') {
            fail("expected ':'", i);
        }
        i += 1;
        skip_ws(&mut i);
        if bytes.get(i) != Some(&'[') {
            fail("expected '['", i);
        }
        i += 1;
        let num = |i: &mut usize| -> f64 {
            while *i < bytes.len() && bytes[*i].is_whitespace() {
                *i += 1;
            }
            let s = *i;
            while *i < bytes.len() && "+-.eE0123456789".contains(bytes[*i]) {
                *i += 1;
            }
            let text: String = bytes[s..*i].iter().collect();
            text.parse()
                .unwrap_or_else(|_| panic!("malformed number {text:?} in {path}"))
        };
        let value = num(&mut i);
        skip_ws(&mut i);
        if bytes.get(i) != Some(&',') {
            fail("expected ',' between value and rtol", i);
        }
        i += 1;
        let rtol = num(&mut i);
        skip_ws(&mut i);
        if bytes.get(i) != Some(&']') {
            fail("expected ']'", i);
        }
        i += 1;
        out.push((key, value, rtol));
        skip_ws(&mut i);
        if bytes.get(i) == Some(&',') {
            i += 1;
        }
    }
    out
}

fn render_goldens(rows: &[(String, f64, f64)]) -> String {
    let mut s = String::from("{\n");
    for (k, (key, value, rtol)) in rows.iter().enumerate() {
        s.push_str(&format!(
            "  \"{key}\": [{value:e}, {rtol:e}]{}\n",
            if k + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push('}');
    s.push('\n');
    s
}

/// Checks (or, with `UPDATE_GOLDEN=1`, rewrites) one golden file.
fn check(name: &str, got: &[Scalar]) {
    let path = format!("{GOLDEN_DIR}/{name}.json");
    let existing: Vec<(String, f64, f64)> = match std::fs::read_to_string(&path) {
        Ok(text) => parse_goldens(&text, &path),
        Err(_) => Vec::new(),
    };

    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        // Preserve hand-tuned tolerances for keys that already exist.
        let rows: Vec<(String, f64, f64)> = got
            .iter()
            .map(|s| {
                let rtol = existing
                    .iter()
                    .find(|(k, _, _)| k == s.key)
                    .map_or(s.rtol, |&(_, _, r)| r);
                (s.key.to_owned(), s.value, rtol)
            })
            .collect();
        std::fs::write(&path, render_goldens(&rows)).expect("write golden");
        eprintln!("updated {path}");
        return;
    }

    assert!(
        !existing.is_empty(),
        "missing golden file {path}; run ./scripts/update_goldens.sh"
    );
    let mut failures = Vec::new();
    for s in got {
        let Some((_, want, rtol)) = existing.iter().find(|(k, _, _)| k == s.key) else {
            failures.push(format!("{name}.{}: no golden entry (stale file?)", s.key));
            continue;
        };
        let tol = rtol * want.abs() + 1e-18;
        if !((s.value - want).abs() <= tol) {
            failures.push(format!(
                "{name}.{}: got {:e}, golden {want:e} (rtol {rtol:e})",
                s.key, s.value
            ));
        }
    }
    for (k, _, _) in &existing {
        if !got.iter().any(|s| s.key == k) {
            failures.push(format!("{name}.{k}: golden entry no longer produced"));
        }
    }
    assert!(
        failures.is_empty(),
        "golden mismatches (regenerate with ./scripts/update_goldens.sh if intended):\n  {}",
        failures.join("\n  ")
    );
}

// ---------------------------------------------------------------------
// The flows.
// ---------------------------------------------------------------------

/// Figure 3: loop R(f)/L(f) of the clock net plus the two-frequency
/// ladder fit.
#[test]
fn golden_fig3_loop_rl() {
    let case = clock_case(Scale::Small);
    let spec = LoopPortSpec::from_layout(&case.par).expect("clock ports");
    let freqs = [1e8, 1e9, 2e10];
    let ext = extract_loop_rl(&case.par, &spec, &freqs).expect("loop extraction");
    let ladder = LadderFit::fit(
        (freqs[0], ext.r_ohm[0], ext.l_h[0]),
        (freqs[2], ext.r_ohm[2], ext.l_h[2]),
    )
    .expect("ladder fit");
    check(
        "fig3",
        &[
            val("r_ohm_100mhz", ext.r_ohm[0]),
            val("r_ohm_1ghz", ext.r_ohm[1]),
            val("r_ohm_20ghz", ext.r_ohm[2]),
            val("l_h_100mhz", ext.l_h[0]),
            val("l_h_1ghz", ext.l_h[1]),
            val("l_h_20ghz", ext.l_h[2]),
            val("ladder_r0_ohm", ladder.r0),
            val("ladder_l0_h", ladder.l0),
            val("ladder_r1_ohm", ladder.r1),
            val("ladder_l1_h", ladder.l1),
        ],
    );
}

/// Figure 3 under both extraction backends: the matrix-free Krylov
/// path must agree with the dense direct path to 1e-8 on every sweep
/// point, and both must sit inside the committed fig3 goldens.
#[test]
fn golden_fig3_backend_independence() {
    let case = clock_case(Scale::Small);
    let spec = LoopPortSpec::from_layout(&case.par).expect("clock ports");
    let freqs = [1e8, 1e9, 2e10];
    let cfg = ParallelConfig::default();
    let extract = |backend| {
        extract_loop_rl_resilient(
            &case.par,
            &spec,
            &freqs,
            &cfg,
            backend,
            &ResilienceOptions::strict(),
        )
        .map(|got| got.extraction)
    };
    let dense = extract(ExtractionBackend::Dense).expect("dense loop extraction");
    let mf = extract(ExtractionBackend::MatrixFree).expect("matrix-free loop extraction");
    for i in 0..freqs.len() {
        let (rd, ld) = dense.at(i);
        let (rm, lm) = mf.at(i);
        assert!(
            (rd - rm).abs() <= 1e-8 * rd.abs().max(1.0),
            "R at {}: dense {rd:e} vs matrix-free {rm:e}",
            freqs[i]
        );
        assert!(
            (ld - lm).abs() <= 1e-8 * ld.abs(),
            "L at {}: dense {ld:e} vs matrix-free {lm:e}",
            freqs[i]
        );
    }
    // Regeneration of fig3.json is owned by golden_fig3_loop_rl; here
    // both backends only have to *pass* against the committed file.
    if std::env::var("UPDATE_GOLDEN").as_deref() != Ok("1") {
        for ext in [&dense, &mf] {
            check(
                "fig3_backends",
                &[
                    val("r_ohm_100mhz", ext.r_ohm[0]),
                    val("r_ohm_1ghz", ext.r_ohm[1]),
                    val("r_ohm_20ghz", ext.r_ohm[2]),
                    val("l_h_100mhz", ext.l_h[0]),
                    val("l_h_1ghz", ext.l_h[1]),
                    val("l_h_20ghz", ext.l_h[2]),
                ],
            );
        }
    } else {
        check(
            "fig3_backends",
            &[
                val("r_ohm_100mhz", dense.r_ohm[0]),
                val("r_ohm_1ghz", dense.r_ohm[1]),
                val("r_ohm_20ghz", dense.r_ohm[2]),
                val("l_h_100mhz", dense.l_h[0]),
                val("l_h_1ghz", dense.l_h[1]),
                val("l_h_20ghz", dense.l_h[2]),
            ],
        );
    }
}

/// Figure 4: the PEEC (RLC) clock transient's delay/skew/overshoot.
#[test]
fn golden_fig4_clock_transient() {
    let case = clock_case(Scale::Small);
    let flow = run_peec_flow(&case, "PEEC (RLC)", InductanceMode::Full, 2e-12, 900e-12)
        .expect("PEEC RLC flow");
    check(
        "fig4",
        &[
            val("worst_delay_s", flow.worst_delay_s),
            val("worst_skew_s", flow.worst_skew_s),
            val("worst_overshoot_v", flow.worst_overshoot_v),
            count("resistors", flow.counts.resistors),
            count("capacitors", flow.counts.capacitors),
            count("inductors", flow.counts.inductors),
            count("mutuals", flow.counts.mutuals),
        ],
    );
}

/// Table 1: worst delay and skew for all four analysis flows.
#[test]
fn golden_table1_flows() {
    let case = clock_case(Scale::Small);
    let (dt, t_stop) = (2e-12, 900e-12);
    let rc = run_peec_flow(&case, "PEEC (RC)", InductanceMode::None, dt, t_stop)
        .expect("PEEC RC");
    let rlc = run_peec_flow(&case, "PEEC (RLC)", InductanceMode::Full, dt, t_stop)
        .expect("PEEC RLC");
    let accel =
        run_peec_block_diagonal_flow(&case, 3, 2, dt, t_stop).expect("accelerated PEEC");
    let lp = run_loop_flow(&case, 2.5e9, dt, t_stop).expect("LOOP");
    check(
        "table1",
        &[
            val("peec_rc_delay_s", rc.worst_delay_s),
            val("peec_rc_skew_s", rc.worst_skew_s),
            val("peec_rlc_delay_s", rlc.worst_delay_s),
            val("peec_rlc_skew_s", rlc.worst_skew_s),
            val("accel_delay_s", accel.worst_delay_s),
            val("accel_skew_s", accel.worst_skew_s),
            val("loop_delay_s", lp.worst_delay_s),
            val("loop_skew_s", lp.worst_skew_s),
            count("peec_rlc_mutuals", rlc.counts.mutuals),
            count("accel_mutuals", accel.counts.mutuals),
        ],
    );
}

/// Section 4: sparsification retention / error / stability scalars on
/// the clock-over-grid partial-inductance matrix.
#[test]
fn golden_sec4_sparsification() {
    let case = clock_case(Scale::Small);
    let l = &case.par.partial_l;
    let full = stability_report(l.matrix());

    let trunc = truncate_relative(l, 0.2);
    let labels = sections_by_signal_distance(l, &case.par.layout, 3);
    let bd = block_diagonal(l, &labels);
    let k = k_sparsify(l, 0.02).expect("k-sparsify");

    check(
        "sec4",
        &[
            val("full_min_eig_h", full.min_eigenvalue),
            val("trunc_retention", trunc.stats.retention()),
            val("trunc_error", matrix_error(l.matrix(), &trunc.matrix)),
            val("blockdiag_retention", bd.stats.retention()),
            val("blockdiag_error", matrix_error(l.matrix(), &bd.matrix)),
            val("k_retention", k.k_stats.retention()),
            val("k_error", matrix_error(l.matrix(), &k.effective_l.matrix)),
        ],
    );
}
