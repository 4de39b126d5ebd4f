//! Deck and job-description front end for the inductance workbench.
//!
//! The paper's experiments are driven by hand-built circuit
//! constructors; this crate adds the practical front door: a tokenizer
//! and recursive-descent parser for the SPICE-deck subset the
//! workbench can solve (R/L/C/K/V/I, `.SUBCKT`/`.ENDS` with
//! flattening, `.OP`/`.AC`/`.TRAN`), a lowering pass onto
//! [`ind101_circuit::Circuit`], a canonical pretty-printer whose
//! output round-trips bit-exactly, the inverse exporter, and
//! dependency-free JSON/TOML job-description readers for the
//! extraction job server (`ind101-serve`).
//!
//! Every rejection is a typed [`NetlistError`] carrying a line/column
//! [`Span`] into the source text — the fuzz harness
//! (`cargo run -p ind101-netlist --bin fuzz_netlist`) holds the crate
//! to "no panics, every failure typed with a valid span" over mutated
//! decks.
//!
//! # Pipeline
//!
//! ```text
//! text ──parse_deck──▶ Deck ──flatten──▶ FlatDeck ──lower_flat──▶ Lowered
//!   ▲                    │                                          │
//!   └───print_deck───────┘                  Circuit + analysis plans┘
//! ```
//!
//! # Example
//!
//! ```
//! use ind101_netlist::{lower, parse_deck};
//!
//! let deck = parse_deck(
//!     "rc divider\n\
//!      V1 in 0 DC 1\n\
//!      R1 in out 1k\n\
//!      R2 out 0 1k\n\
//!      .OP\n\
//!      .END\n",
//! )
//! .unwrap();
//! let lowered = lower(&deck).unwrap();
//! let op = lowered.circuit.dc_op().unwrap();
//! let out = lowered.circuit.find_node("out").unwrap();
//! assert!((op.voltage(out) - 0.5).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![warn(missing_docs)]

pub mod ast;
pub mod error;
pub mod export;
pub mod flatten;
pub mod job;
pub mod json;
pub mod lexer;
pub mod lower;
#[cfg(test)]
mod oracle;
pub mod parser;
pub mod print;
pub mod span;
pub mod value;

pub use ast::{AcSweep, AnalysisCard, Deck, ElementKind, ElementStmt, SourceSpec, Stmt, WaveSpec};
pub use error::NetlistError;
pub use export::{deck_from_circuit, export_deck, ExportError};
pub use flatten::{flatten, FlatDeck};
pub use job::{
    jobs_from_json, jobs_from_str, jobs_from_toml, DeckSource, FilamentGridJob, JobFile,
    JobOptions, JobRequest, JobSpec, LoopBusJob,
};
pub use json::{parse_json, parse_toml, Value};
pub use lower::{lower, lower_flat, AnalysisPlan, Lowered};
pub use parser::parse_deck;
pub use print::print_deck;
pub use span::Span;
pub use value::{format_value, parse_value};
