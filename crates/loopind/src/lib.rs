//! The loop-inductance methodology — the paper's Section 5.
//!
//! "The loop inductance model defines a port at the driver side of the
//! signal line and shorts the receiver side (which actually sees a
//! capacitive load) to the local ground, since inductance extraction is
//! performed independent of capacitance. Typically, an extraction tool
//! such as FastHenry is used to obtain the impedance over a frequency
//! range … A netlist is then constructed with the resistance and loop
//! inductance of the signal and ground grid, at one frequency."
//!
//! * [`extract_loop_rl`] plays FastHenry's role: a direct complex solve
//!   of the R + jωL_partial network over the sweep (the multipole
//!   acceleration of the real FastHenry is purely a speed-up; for the
//!   topology sizes here the direct solve returns the same `R(f)`,
//!   `L(f)` — see `DESIGN.md`, substitution table). Capacitance is
//!   deliberately excluded, reproducing the methodology's documented
//!   error source. It is the strict call of the one extraction,
//!   [`extract_loop_rl_resilient`], which also takes the backend,
//!   thread count and resilience options.
//! * [`LadderFit`] implements the two-frequency R₀/L₀/R₁/L₁ ladder of
//!   the paper's reference \[5\] (Krauter et al., DAC 1998), Figure 3(d).
//! * [`build_loop_circuit`] constructs the simplified netlist: loop R/L
//!   (lumped, multi-segment, or ladder) with "all the interconnect and
//!   load capacitance modeled as a lumped capacitance at the receiver
//!   end", ready to connect driver and receiver gates.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![warn(missing_docs)]

mod backend;
mod extract;
mod ladder;
mod netlist;

pub use backend::{ExtractionBackend, AUTO_MATRIX_FREE_THRESHOLD, EXTRACTION_BACKEND_ENV};
pub use extract::{
    extract_loop_rl, extract_loop_rl_resilient, LoopExtraction, LoopPortSpec,
    ResilientLoopExtraction,
};
pub use ladder::LadderFit;
pub use netlist::{build_loop_circuit, LoopCircuit, LoopInterconnect, LoopNetlistSpec};
