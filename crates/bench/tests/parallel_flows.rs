//! Thread-count invariance of the frequency-parallel extraction flow:
//! splitting the sweep across workers must not change a single bit of
//! the extracted loop R(f)/L(f) curves.

use ind101_bench::{clock_case_with, Scale};
use ind101_circuit::ResilienceOptions;
use ind101_loop::{extract_loop_rl_resilient, ExtractionBackend, LoopPortSpec};
use ind101_numeric::ParallelConfig;

#[test]
fn loop_extraction_is_thread_invariant() {
    let serial = ParallelConfig::with_threads(1);
    let four = ParallelConfig::with_threads(4);
    let case = clock_case_with(Scale::Small, &serial);
    let spec = LoopPortSpec::from_layout(&case.par).expect("clock ports");
    let freqs: Vec<f64> = (0..5).map(|k| 1e8 * 10f64.powi(k)).collect();

    let extract = |cfg| {
        extract_loop_rl_resilient(
            &case.par,
            &spec,
            &freqs,
            cfg,
            ExtractionBackend::Auto,
            &ResilienceOptions::strict(),
        )
        .map(|got| got.extraction)
    };
    let a = extract(&serial).expect("serial");
    let b = extract(&four).expect("parallel");

    assert_eq!(a.freqs_hz, b.freqs_hz, "frequency order changed");
    assert_eq!(a.r_ohm, b.r_ohm, "R(f) diverged across thread counts");
    assert_eq!(a.l_h, b.l_h, "L(f) diverged across thread counts");
}
