//! FIG3 — reproduces the paper's Figure 3(b): loop resistance and loop
//! inductance versus log-frequency for the clock net over the grid,
//! from the PEEC (FastHenry-style) extraction, plus the two-frequency
//! ladder model of Figure 3(d).

use ind101_bench::table::{eng, TextTable};
use ind101_bench::{clock_case_with, parallel_config_from_args, Scale};
use ind101_circuit::ResilienceOptions;
use ind101_loop::{extract_loop_rl_resilient, ExtractionBackend, LadderFit, LoopPortSpec};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = parallel_config_from_args(&mut args);
    println!(
        "== Figure 3(b): loop R and L vs log(frequency) ({} threads) ==",
        cfg.threads
    );
    let case = clock_case_with(Scale::Small, &cfg);
    let spec = LoopPortSpec::from_layout(&case.par).expect("clock ports");
    let freqs: Vec<f64> = (0..13).map(|k| 1e7 * 10f64.powf(k as f64 / 3.0)).collect();
    let ext = extract_loop_rl_resilient(
        &case.par,
        &spec,
        &freqs,
        &cfg,
        ExtractionBackend::Auto,
        &ResilienceOptions::strict(),
    )
    .expect("loop extraction")
    .extraction;

    // Ladder fit at two frequencies (one low, one high), as [5] does.
    let i1 = ext.nearest_index(1e8);
    let i2 = ext.nearest_index(2e10);
    let ladder = LadderFit::fit(
        (ext.freqs_hz[i1], ext.r_ohm[i1], ext.l_h[i1]),
        (ext.freqs_hz[i2], ext.r_ohm[i2], ext.l_h[i2]),
    );

    let mut t = TextTable::new(vec![
        "freq",
        "R_peec",
        "L_peec",
        "R_ladder",
        "L_ladder",
    ]);
    for (k, &f) in ext.freqs_hz.iter().enumerate() {
        let (rl, ll) = ladder.map_or((f64::NAN, f64::NAN), |lad| lad.rl_at(f));
        t.row(vec![
            eng(f, "Hz"),
            format!("{:.4}", ext.r_ohm[k]),
            eng(ext.l_h[k], "H"),
            format!("{:.4}", rl),
            eng(ll, "H"),
        ]);
    }
    println!("{}", t.render());
    if let Some(lad) = ladder {
        println!(
            "ladder parameters (fig 3d): R0={:.4}Ω L0={} R1={:.4}Ω L1={}",
            lad.r0,
            eng(lad.l0, "H"),
            lad.r1,
            eng(lad.l1, "H")
        );
    }
    let n = ext.freqs_hz.len();
    println!(
        "shape check: L decreases with f [{}], R increases with f [{}]",
        if ext.l_h[0] > ext.l_h[n - 1] { "ok" } else { "MISMATCH" },
        if ext.r_ohm[n - 1] > ext.r_ohm[0] { "ok" } else { "MISMATCH" },
    );
}
