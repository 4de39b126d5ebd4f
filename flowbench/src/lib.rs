//! flowbench: end-to-end and per-layer benchmark of the paper's
//! analysis flows.
//!
//! Four workloads — `table1_peec`, `loop_rl`, `sec4_sparsify` and
//! `deck_serve` — compose the toolkit's plain public entry points into
//! the paper's flows, time each flow from outside, check its outputs,
//! and on a traced run record a span around every layer call. See
//! `README.md` for the metrics, bounds and the layer → end-to-end map.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![warn(missing_docs)]

pub mod clock;
pub mod compare;
pub mod deck_serve;
pub mod flows;
pub mod geometry;
pub mod harness;
pub mod loop_rl;
pub mod metrics;
pub mod record;
pub mod reference;
pub mod sec4;
pub mod stats;
pub mod table1;
pub mod trace;

use harness::{run, Run, RunConfig};

/// Workload names, in the default run order.
pub const WORKLOADS: [&str; 4] = ["table1_peec", "loop_rl", "sec4_sparsify", "deck_serve"];

/// Runs the named workload.
///
/// # Errors
///
/// An unknown name, or a set-up failure.
pub fn run_workload(name: &str, cfg: &RunConfig) -> Result<Run, String> {
    match name {
        "table1_peec" => run::<table1::Table1>(cfg),
        "loop_rl" => run::<loop_rl::LoopRl>(cfg),
        "sec4_sparsify" => run::<sec4::Sec4>(cfg),
        "deck_serve" => run::<deck_serve::DeckServe>(cfg),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}
