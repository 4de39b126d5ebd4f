//! # ind101 — on-chip inductance analysis toolkit
//!
//! Facade crate re-exporting the full toolkit that reproduces
//! *"Inductance 101: Analysis and Design Issues"* (Gala, Blaauw, Wang,
//! Zolotov, Zhao — DAC 2001). See `DESIGN.md` for the system inventory
//! and `EXPERIMENTS.md` for the reproduced tables and figures.
//!
//! The sub-crates are re-exported under short module names:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`numeric`] | `ind101-numeric` | dense/sparse linear algebra |
//! | [`geom`] | `ind101-geom` | layout & technology substrate |
//! | [`extract`] | `ind101-extract` | R / partial-L / C extraction |
//! | [`circuit`] | `ind101-circuit` | MNA simulator (DC/AC/transient) |
//! | [`peec`] | `ind101-core` | detailed PEEC model + flows |
//! | [`sparsify`] | `ind101-sparsify` | Section 4 sparsification |
//! | [`verify`] | `ind101-verify` | pre-simulation ERC + passivity audit |
//! | [`mor`] | `ind101-mor` | PRIMA model-order reduction |
//! | [`loopind`] | `ind101-loop` | Section 5 loop methodology |
//! | [`design`] | `ind101-design` | Section 7 design techniques |
//! | [`netlist`] | `ind101-netlist` | SPICE-deck frontend + deck export |
//! | [`serve`] | `ind101-serve` | concurrent job server over the frontend |

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub use ind101_circuit as circuit;
pub use ind101_core as peec;
pub use ind101_design as design;
pub use ind101_extract as extract;
pub use ind101_geom as geom;
pub use ind101_loop as loopind;
pub use ind101_mor as mor;
pub use ind101_numeric as numeric;
pub use ind101_sparsify as sparsify;
pub use ind101_netlist as netlist;
pub use ind101_serve as serve;
pub use ind101_verify as verify;
