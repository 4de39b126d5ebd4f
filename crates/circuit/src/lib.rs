//! Circuit simulation engine for the `ind101` toolkit.
//!
//! A compact SPICE-class simulator covering exactly what the paper's
//! flows need:
//!
//! * **Netlist** — resistors, capacitors, (mutually) coupled inductor
//!   systems, independent V/I sources (DC / pulse / PWL), level-1
//!   MOSFETs and CMOS inverter macros ([`Circuit`]).
//! * **DC operating point** — Newton–Raphson with gmin ([`Circuit::dc_op`]).
//! * **Transient** — fixed-step trapezoidal (with backward-Euler
//!   start-up) using companion models; coupled inductors keep their
//!   branch currents as MNA unknowns so a *dense* partial-inductance
//!   matrix stamps directly, exactly like a PEEC netlist in SPICE
//!   ([`Circuit::transient`]).
//! * **AC sweep** — complex-valued MNA over a frequency list
//!   ([`Circuit::ac_sweep`]).
//! * **Measurements** — 50 % delay, skew, overshoot, ringing, noise
//!   peaks ([`measure`]).
//!
//! The linear solver self-selects between banded LU after reverse
//! Cuthill–McKee ordering (RC grids), a KLU-class sparse LU (wide or
//! block-reducible patterns, including the PEEC-RLC systems with their
//! dense mutual-inductance blocks) and dense LU for small or
//! irreducibly dense systems. The mutual blocks fill the sparse factor,
//! which is why PEEC-RLC stays the slow Table 1 model, as in the paper.
//!
//! # Example
//!
//! ```
//! use ind101_circuit::{Circuit, SourceWave, TranOptions};
//!
//! // RC low-pass driven by a step: v_out settles to 1 V.
//! let mut c = Circuit::new();
//! let inp = c.node("in");
//! let out = c.node("out");
//! c.vsrc(inp, Circuit::GND, SourceWave::dc(1.0));
//! c.resistor(inp, out, 1_000.0);
//! c.capacitor(out, Circuit::GND, 1e-12);
//! let res = c.transient(&TranOptions::new(1e-11, 20e-9)).unwrap();
//! let v_end = res.voltage(out).last_value();
//! assert!((v_end - 1.0).abs() < 1e-3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

mod ac;
mod ac_matrix_free;
mod dcop;
mod elements;
mod error;
#[cfg(feature = "solver-faults")]
pub mod faults;
pub mod measure;
mod mna;
mod netlist;
mod nonlinear;
mod rescue;
mod resilience;
mod solver;
mod system;
mod tran;
mod waveform;

pub use ac::{AcOptions, AcResult};
pub use ac_matrix_free::MatrixFreeAcOptions;
pub use dcop::DcOperatingPoint;
pub use elements::{Element, MosPolarity, Mosfet};
pub use error::CircuitError;
pub use netlist::{Circuit, ElementCounts, InductorSystem, InverterParams, NodeId};
pub use rescue::{RescuePolicy, RescueReport, RescueRung, RungTrace};
pub use resilience::{
    FailurePolicy, FrequencyRecovery, FrequencyStatus, RecoveryReport, ResilienceOptions,
    ResilientAcSweep,
};
pub use solver::SolverBackend;
pub use system::MnaSystem;
pub use tran::{AdaptiveOptions, StepControl, TranOptions, TranResult};
pub use waveform::{SourceWave, Trace};

/// Result alias for circuit operations.
pub type Result<T> = std::result::Result<T, CircuitError>;
