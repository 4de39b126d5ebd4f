//! The metric catalog: every metric a run reports, with its unit and
//! direction. `BENCHMARK.json` lists the same end-to-end and per-layer
//! metrics (a test keeps the two in step).

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Lower => "lower",
            Self::Higher => "higher",
        }
    }

    /// Parses `"lower"` / `"higher"`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "lower" => Some(Self::Lower),
            "higher" => Some(Self::Higher),
            _ => None,
        }
    }
}

/// One metric of the catalog.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end metric the value should move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics every untraced run reports.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower, "setup_s"),
    m("iter_s", "s", Lower, "iter_s"),
    m("peak_rss_mb", "MiB", Lower, "peak_rss_mb"),
];

/// Per-flow end-to-end metrics: each is reported by one workload, in
/// its record and its printed table. Each is a part of `iter_s`, and
/// `flowbench compare` holds it to `iter_s`'s bound.
pub const FLOW: &[MetricDef] = &[
    m("peec_rc_s", "s", Lower, "iter_s"),
    m("peec_rlc_s", "s", Lower, "iter_s"),
    m("peec_accel_s", "s", Lower, "iter_s"),
    m("loop_s", "s", Lower, "iter_s"),
    m("fig3_sweep_s", "s", Lower, "iter_s"),
    m("sec4_study_s", "s", Lower, "iter_s"),
    m("jobs_per_s", "1/s", Higher, "iter_s"),
    m("job_latency_ms.p50", "ms", Lower, "iter_s"),
    m("job_latency_ms.p99", "ms", Lower, "iter_s"),
];

/// Per-layer metrics every traced run reports. A layer that the
/// workload never calls reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // Every workload.
    m("trace.overhead", "ratio", Lower, "iter_s"),
    m("trace.coverage", "fraction", Higher, "iter_s"),
    m("extract.peec_parasitics.s", "s", Lower, "setup_s"),
    // table1_peec.
    m("core.build_testbench.s", "s", Lower, "peec_rc_s"),
    m("circuit.transient.rc.s", "s", Lower, "peec_rc_s"),
    m("circuit.transient.rlc.s", "s", Lower, "peec_rlc_s"),
    m("circuit.transient.accel.s", "s", Lower, "peec_accel_s"),
    m("circuit.transient.steps", "count", Lower, "iter_s"),
    m("circuit.transient.rejected", "count", Lower, "iter_s"),
    m("circuit.rescue.rungs", "count", Lower, "iter_s"),
    m("circuit.measure.s", "s", Lower, "iter_s"),
    m("sparsify.block_diagonal.s", "s", Lower, "peec_accel_s"),
    m("numeric.dense_lu.rc.ms", "ms", Lower, "peec_rc_s"),
    m("numeric.dense_lu.rlc.ms", "ms", Lower, "peec_rlc_s"),
    m("numeric.sparse_analyze.rc.ms", "ms", Lower, "peec_rc_s"),
    m("numeric.sparse_analyze.rlc.ms", "ms", Lower, "peec_rlc_s"),
    m("numeric.sparse_factor.rc.ms", "ms", Lower, "peec_rc_s"),
    m("numeric.sparse_factor.rlc.ms", "ms", Lower, "peec_rlc_s"),
    m("numeric.sparse_solve.rc.ms", "ms", Lower, "peec_rc_s"),
    m("numeric.sparse_solve.rlc.ms", "ms", Lower, "peec_rlc_s"),
    m("numeric.unknowns.rc", "count", Lower, "peec_rc_s"),
    m("numeric.unknowns.rlc", "count", Lower, "peec_rlc_s"),
    m("numeric.factor_nnz.rc", "count", Lower, "peec_rc_s"),
    m("numeric.factor_nnz.rlc", "count", Lower, "peec_rlc_s"),
    // loop_rl.
    m("loopind.extract_loop_rl.loop.s", "s", Lower, "loop_s"),
    m(
        "loopind.extract_loop_rl.loop.calls",
        "count",
        Lower,
        "loop_s",
    ),
    m("loopind.extract_loop_rl.fig3.s", "s", Lower, "fig3_sweep_s"),
    m(
        "loopind.extract_loop_rl.fig3.per_freq_ms",
        "ms",
        Lower,
        "fig3_sweep_s",
    ),
    m("loopind.extract_loop_rl.fixed_ms", "ms", Lower, "loop_s"),
    m("loopind.build_loop_circuit.s", "s", Lower, "loop_s"),
    m("circuit.transient.loop.s", "s", Lower, "loop_s"),
    m("circuit.transient.loop.steps", "count", Lower, "loop_s"),
    // sec4_sparsify.
    m("sparsify.truncate_relative.s", "s", Lower, "sec4_study_s"),
    m("sparsify.shell_auto_radius.s", "s", Lower, "sec4_study_s"),
    m("sparsify.halo_sparsify.s", "s", Lower, "sec4_study_s"),
    m(
        "sparsify.hierarchical_sparsify.s",
        "s",
        Lower,
        "sec4_study_s",
    ),
    m("sparsify.k_sparsify.s", "s", Lower, "sec4_study_s"),
    m("sparsify.stability_report.s", "s", Lower, "sec4_study_s"),
    m(
        "sparsify.stability_report.calls",
        "count",
        Lower,
        "sec4_study_s",
    ),
    m("sparsify.matrix_error.s", "s", Lower, "sec4_study_s"),
    m("verify.audit_sparsified.s", "s", Lower, "sec4_study_s"),
    m("verify.non_passive", "count", Lower, "sec4_study_s"),
    m("extract.bus_inductance.s", "s", Lower, "sec4_study_s"),
    m("circuit.transient.bus.s", "s", Lower, "sec4_study_s"),
    // deck_serve.
    m(
        "serve.run_job.hit_ms.p50",
        "ms",
        Lower,
        "job_latency_ms.p50",
    ),
    m(
        "serve.run_job.miss_ms.p50",
        "ms",
        Lower,
        "job_latency_ms.p50",
    ),
    m(
        "serve.run_job.miss_ms.p99",
        "ms",
        Lower,
        "job_latency_ms.p99",
    ),
    m(
        "serve.run_job.t1_deck_ms.p50",
        "ms",
        Lower,
        "job_latency_ms.p50",
    ),
    m(
        "serve.run_job.bus_deck_ms.p50",
        "ms",
        Lower,
        "job_latency_ms.p50",
    ),
    m(
        "serve.run_job.grid_ms.p50",
        "ms",
        Lower,
        "job_latency_ms.p50",
    ),
    m(
        "serve.run_job.loop_bus_ms.p50",
        "ms",
        Lower,
        "job_latency_ms.p50",
    ),
    m(
        "serve.run_job.malformed_ms.p50",
        "ms",
        Lower,
        "job_latency_ms.p50",
    ),
    m("serve.result_hit_ratio", "fraction", Higher, "jobs_per_s"),
    m("serve.gmd_hit_ratio", "fraction", Higher, "jobs_per_s"),
    m("serve.gmd_collisions", "count", Lower, "jobs_per_s"),
    m("serve.lu_patterns", "count", Lower, "jobs_per_s"),
    m("netlist.parse_deck.ms", "ms", Lower, "job_latency_ms.p50"),
    m("netlist.flatten.ms", "ms", Lower, "job_latency_ms.p50"),
    m("netlist.lower_flat.ms", "ms", Lower, "job_latency_ms.p50"),
    m("verify.check.ms", "ms", Lower, "job_latency_ms.p50"),
    m("circuit.dc_op.ms", "ms", Lower, "job_latency_ms.p50"),
    m("circuit.ac_sweep.ms", "ms", Lower, "jobs_per_s"),
    m("numeric.sparse_analyze.ac.ms", "ms", Lower, "jobs_per_s"),
    m("numeric.sparse_factor.ac.ms", "ms", Lower, "jobs_per_s"),
    m("numeric.sparse_refactor.ac.ms", "ms", Lower, "jobs_per_s"),
    m("numeric.sparse_solve.ac.ms", "ms", Lower, "jobs_per_s"),
    m("numeric.factor_nnz.ac", "count", Lower, "jobs_per_s"),
    m("numeric.supernodes.ac", "count", Lower, "jobs_per_s"),
    m(
        "extract.grid_operator.ms",
        "ms",
        Lower,
        "job_latency_ms.p99",
    ),
    m(
        "loopind.extract_loop_rl.bus.ms",
        "ms",
        Lower,
        "job_latency_ms.p99",
    ),
];

/// Looks a metric up in the whole catalog.
#[must_use]
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(FLOW)
        .chain(PER_LAYER)
        .find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for d in END_TO_END.iter().chain(FLOW).chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
