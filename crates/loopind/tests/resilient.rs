//! Resilient loop-extraction tests: partial-result sweeps, budget
//! refusal, and cancellation at the `extract_loop_rl_resilient` level.
//!
//! No fault injection here (that lives in the circuit crate's chaos
//! suite) — these tests pin the *no-fault* contract: the default
//! (rescue armed) extraction is bit-identical to the strict one that
//! `extract_loop_rl` runs, on both backends, a memory budget refuses
//! the dense path with a typed error before any allocation, and
//! cancellation/deadlines return an empty partial result with full
//! telemetry instead of hanging.

use ind101_circuit::{CircuitError, ResilienceOptions};
use ind101_core::{InductanceMode, PeecModel, PeecParasitics};
use ind101_geom::generators::{generate_bus, BusSpec, ShieldPattern};
use ind101_geom::{um, Technology};
use ind101_loop::{extract_loop_rl_resilient, ExtractionBackend, LoopPortSpec};
use ind101_numeric::{CancelToken, ParallelConfig, SolveBudget};

fn bus_parasitics() -> PeecParasitics {
    let tech = Technology::example_copper_6lm();
    let spec = BusSpec {
        signals: 3,
        length_nm: um(800),
        spacing_nm: um(2),
        shields: ShieldPattern::Explicit(vec![1]),
        ..BusSpec::default()
    };
    let bus = generate_bus(&tech, &spec);
    PeecParasitics::extract(&bus, um(800))
}

#[test]
fn default_matches_strict_bitwise_on_both_backends() {
    let par = bus_parasitics();
    let spec = LoopPortSpec::from_layout(&par).unwrap();
    let freqs = [1e8, 5e9, 4e10];
    let cfg = ParallelConfig::serial();
    for backend in [ExtractionBackend::Dense, ExtractionBackend::MatrixFree] {
        // Strict (resilience off) and default (armed, never fired) must
        // give the same extraction bit for bit.
        let [strict, armed] =
            [ResilienceOptions::strict(), ResilienceOptions::default()].map(|res| {
                extract_loop_rl_resilient(&par, &spec, &freqs, &cfg, backend, &res).unwrap()
            });
        for got in [&strict, &armed] {
            assert!(got.report.clean(), "{backend:?}: {}", got.report.summary());
        }
        assert_eq!(
            armed.extraction, strict.extraction,
            "{backend:?}: armed result diverged from strict"
        );
    }
}

#[test]
fn tiny_memory_budget_refuses_dense_backend_typed() {
    let par = bus_parasitics();
    let spec = LoopPortSpec::from_layout(&par).unwrap();
    let cfg = ParallelConfig::serial();
    let res = ResilienceOptions::with_budget(SolveBudget::unlimited().with_memory_bytes(64));
    let err = extract_loop_rl_resilient(&par, &spec, &[1e9], &cfg, ExtractionBackend::Dense, &res)
        .unwrap_err();
    assert!(
        matches!(err, CircuitError::BudgetExceeded { .. }),
        "Dense: expected BudgetExceeded, got {err:?}"
    );
    // `Auto` is gated like whatever it resolves to for this probe's
    // filaments, which `IND101_EXTRACTION_BACKEND` may force either way.
    let filaments = PeecModel::build(&par, InductanceMode::Full)
        .unwrap()
        .inductive_segments
        .len();
    let got = extract_loop_rl_resilient(&par, &spec, &[1e9], &cfg, ExtractionBackend::Auto, &res);
    match ExtractionBackend::Auto.resolve(filaments).unwrap() {
        ExtractionBackend::Dense => assert!(
            matches!(got, Err(CircuitError::BudgetExceeded { .. })),
            "Auto: expected BudgetExceeded, got {got:?}"
        ),
        _ => {
            let got = got.unwrap();
            assert_eq!(got.extraction.freqs_hz, vec![1e9]);
            assert!(got.report.clean(), "{}", got.report.summary());
        }
    }
}

#[test]
fn matrix_free_backend_passes_the_memory_gate() {
    // The same 64-byte ceiling that refuses the dense path does not
    // gate the matrix-free one (no n×n stamp), so extraction proceeds.
    let par = bus_parasitics();
    let spec = LoopPortSpec::from_layout(&par).unwrap();
    let cfg = ParallelConfig::serial();
    let res = ResilienceOptions::with_budget(SolveBudget::unlimited().with_memory_bytes(64));
    let got = extract_loop_rl_resilient(
        &par,
        &spec,
        &[1e9],
        &cfg,
        ExtractionBackend::MatrixFree,
        &res,
    )
    .unwrap();
    assert_eq!(got.extraction.freqs_hz, vec![1e9]);
    assert!(got.report.clean(), "{}", got.report.summary());
}

#[test]
fn cancelled_extraction_returns_empty_partial_with_report() {
    let par = bus_parasitics();
    let spec = LoopPortSpec::from_layout(&par).unwrap();
    let freqs = [1e8, 1e9, 1e10];
    let cfg = ParallelConfig::serial();
    let token = CancelToken::new();
    token.cancel();
    let res = ResilienceOptions::with_budget(SolveBudget::unlimited().with_cancel(token));
    for backend in [ExtractionBackend::Dense, ExtractionBackend::MatrixFree] {
        let got =
            extract_loop_rl_resilient(&par, &spec, &freqs, &cfg, backend, &res).unwrap();
        assert!(got.extraction.freqs_hz.is_empty(), "{backend:?}");
        assert_eq!(got.report.not_attempted_count(), freqs.len(), "{backend:?}");
        let why = got.report.stopped.clone().expect("stop reason");
        assert!(why.contains("cancelled"), "{backend:?}: {why}");
    }
}

#[test]
fn expired_deadline_stops_before_any_frequency() {
    let par = bus_parasitics();
    let spec = LoopPortSpec::from_layout(&par).unwrap();
    let cfg = ParallelConfig::serial();
    let res = ResilienceOptions::with_budget(SolveBudget::unlimited().with_wall_seconds(0.0));
    let got = extract_loop_rl_resilient(
        &par,
        &spec,
        &[1e8, 1e9],
        &cfg,
        ExtractionBackend::MatrixFree,
        &res,
    )
    .unwrap();
    assert!(got.extraction.freqs_hz.is_empty());
    assert_eq!(got.report.not_attempted_count(), 2);
    let why = got.report.stopped.clone().expect("stop reason");
    assert!(why.contains("wall-clock"), "{why}");
}
