//! `loop_rl`: the Table-1 LOOP flow and the Figure-3 sweep on the
//! Medium clock net.
//!
//! Almost all the time is `ind101_loop::extract_loop_rl`. The LOOP flow
//! makes six single-frequency calls and pays mostly the fixed cost of a
//! call; the Figure-3 sweep makes one 13-frequency call and pays mostly
//! the cost per frequency. A change that helps one use and hurts the
//! other shows up here. The loop transients are about 1 %.

use crate::flows::{fig3_freqs, fig3_sweep, loop_flow, testbench_spec};
use crate::geometry::{receiver_cap_f, ClockCase, ClockGeometry};
use crate::harness::{Checks, Ctx, Workload};
use crate::record::Metric;
use crate::reference::{val, Output};
use crate::trace::Tracer;
use ind101_core::testbench::TestbenchSpec;
use std::collections::BTreeMap;

/// Slack for the R(f) / L(f) monotonicity invariant, relative: a flat
/// low-frequency plateau may wobble in the last bits.
const MONOTONE_RTOL: f64 = 1e-9;

/// The workload state.
pub struct LoopRl {
    case: ClockCase,
    spec: TestbenchSpec,
    freqs: Vec<f64>,
}

impl Workload for LoopRl {
    const NAME: &'static str = "loop_rl";
    const WARMUP: bool = true;
    const STAGES: &'static [&'static str] = &["loop_s", "fig3_sweep_s"];

    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        Ok(Self {
            case: ClockGeometry::medium(seed).extract(tr),
            spec: testbench_spec(receiver_cap_f(seed)),
            freqs: fig3_freqs(),
        })
    }

    fn iteration(&mut self, ctx: &mut Ctx) -> f64 {
        ctx.checks.begin();
        let t0 = ctx.tr.now();
        let lp = loop_flow(&mut ctx.tr, &self.case, &self.spec);
        let t1 = ctx.tr.now();
        let fig3 = fig3_sweep(&mut ctx.tr, &self.case.par, &self.freqs);
        let t2 = ctx.tr.now();
        ctx.sample("loop_s", t1 - t0);
        ctx.sample("fig3_sweep_s", t2 - t1);
        match (lp, fig3) {
            (Ok(lp), Ok((ext, ladder))) => {
                let mut outs = vec![
                    val("loop_delay_s", lp.flow.worst_delay_s),
                    val("loop_skew_s", lp.flow.worst_skew_s),
                ];
                for (k, (r, l)) in lp.r_ohm.iter().zip(&lp.l_h).enumerate() {
                    outs.push(val(format!("loop_r_ohm_{k}"), *r));
                    outs.push(val(format!("loop_l_h_{k}"), *l));
                }
                for (k, (r, l)) in ext.r_ohm.iter().zip(&ext.l_h).enumerate() {
                    outs.push(val(format!("fig3_r_ohm_{k}"), *r));
                    outs.push(val(format!("fig3_l_h_{k}"), *l));
                }
                if let Some(lad) = ladder {
                    outs.push(val("ladder_r0_ohm", lad.r0));
                    outs.push(val("ladder_l0_h", lad.l0));
                    outs.push(val("ladder_r1_ohm", lad.r1));
                    outs.push(val("ladder_l1_h", lad.l1));
                } else {
                    ctx.checks.fail("figure 3 ladder fit failed".to_owned());
                }
                ctx.check_outputs(outs, invariants);
            }
            (lp, fig3) => {
                for e in [lp.err(), fig3.err()].into_iter().flatten() {
                    ctx.checks.fail(e);
                }
            }
        }
        t2 - t0
    }

    fn finish(&self, traced: bool, metrics: &mut BTreeMap<String, Metric>) {
        if !traced {
            return;
        }
        // One LOOP call solves one frequency (fixed + per-frequency
        // cost); the sweep solves 13. Their difference separates the two.
        let (Some(one), Some(sweep)) = (
            metrics
                .get("loopind.extract_loop_rl.loop.s")
                .map(|m| m.value),
            metrics
                .get("loopind.extract_loop_rl.fig3.s")
                .map(|m| m.value),
        ) else {
            return;
        };
        let calls = metrics
            .get("loopind.extract_loop_rl.loop.calls")
            .map_or(1.0, |m| m.value.max(1.0));
        let per_call = one / calls;
        let n = self.freqs.len() as f64;
        let per_freq = (sweep - per_call) / (n - 1.0);
        metrics.insert(
            "loopind.extract_loop_rl.fig3.per_freq_ms".to_owned(),
            Metric::single(per_freq * 1e3, "ms"),
        );
        metrics.insert(
            "loopind.extract_loop_rl.fixed_ms".to_owned(),
            Metric::single((per_call - per_freq) * 1e3, "ms"),
        );
    }
}

/// Seeds without reference values: delays are positive times, and the
/// Figure-3 curve shows skin and proximity effect — R(f) never falls
/// and L(f) never rises with frequency.
fn invariants(outs: &[Output], checks: &mut Checks) {
    let series = |prefix: &str| -> Vec<f64> {
        outs.iter()
            .filter(|o| o.key.starts_with(prefix))
            .map(|o| o.value)
            .collect()
    };
    for o in outs.iter().filter(|o| o.key == "loop_delay_s") {
        checks.expect(o.value.is_finite() && o.value > 0.0, || {
            format!("LOOP delay {:e} is not a positive time", o.value)
        });
    }
    let r = series("fig3_r_ohm_");
    let l = series("fig3_l_h_");
    checks.expect(r.len() == 13 && l.len() == 13, || {
        "figure 3 sweep is incomplete".to_owned()
    });
    for w in r.windows(2) {
        checks.expect(w[1] >= w[0] * (1.0 - MONOTONE_RTOL), || {
            format!("R(f) falls with frequency: {:e} → {:e}", w[0], w[1])
        });
    }
    for w in l.windows(2) {
        checks.expect(w[1] <= w[0] * (1.0 + MONOTONE_RTOL), || {
            format!("L(f) rises with frequency: {:e} → {:e}", w[0], w[1])
        });
    }
}
