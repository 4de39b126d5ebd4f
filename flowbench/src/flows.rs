//! The paper's Table-1 and Figure-3 flows, composed from the toolkit's
//! plain public entry points with a span around each layer call.
//!
//! The composition matches the shipped harness flows step for step, so
//! at Small scale these reproduce the committed goldens (see
//! `tests/mirror.rs`).

use crate::geometry::ClockCase;
use crate::trace::Tracer;
use ind101_circuit::{measure, InverterParams, RescuePolicy, SourceWave, TranOptions, TranResult};
use ind101_core::testbench::{build_testbench, DriverKind, TestbenchSpec};
use ind101_core::{InductanceMode, PeecParasitics};
use ind101_geom::NetKind;
use ind101_loop::{
    build_loop_circuit, extract_loop_rl, LadderFit, LoopExtraction, LoopInterconnect,
    LoopNetlistSpec, LoopPortSpec,
};
use ind101_sparsify::block_diagonal::{block_diagonal, rlc_mask, sections_by_signal_distance};

/// Transient time step, seconds (Table 1).
pub const DT_S: f64 = 2e-12;
/// Transient stop time, seconds (Table 1).
const T_STOP_S: f64 = 900e-12;
/// Supply voltage, volts.
const VDD: f64 = 1.8;
/// Input step delay and rise time, seconds.
const INPUT_DELAY_S: f64 = 100e-12;
const INPUT_RISE_S: f64 = 50e-12;
/// Decoupling: total capacitance, sites, series resistance.
const DECAP_TOTAL_F: f64 = 10e-12;
const DECAP_SITES: usize = 8;
const DECAP_ESR_OHM: f64 = 2.0;
/// Driver inverter strength relative to the default device.
const DRIVER_SCALE: f64 = 2.0;
/// Block-diagonal acceleration: sections by distance from the clock,
/// and the first section demoted to RC.
const BLOCK_SECTIONS: usize = 3;
const RC_FROM_SECTION: usize = 2;
/// LOOP flow: extraction frequency, hertz, and π segments per loop.
const LOOP_FREQ_HZ: f64 = 2.5e9;
const LOOP_SEGMENTS: usize = 4;
/// Floors for the extracted loop R and L (a degenerate extraction must
/// not stamp a zero branch).
const MIN_LOOP_R_OHM: f64 = 1e-3;
const MIN_LOOP_L_H: f64 = 1e-15;
/// Figure 3 ladder-fit anchor frequencies, hertz.
const LADDER_LOW_HZ: f64 = 1e8;
const LADDER_HIGH_HZ: f64 = 2e10;

/// The flows' stimulus and supply set-up.
#[must_use]
pub fn testbench_spec(receiver_cap_f: f64) -> TestbenchSpec {
    TestbenchSpec {
        vdd: VDD,
        input: SourceWave::step(0.0, VDD, INPUT_DELAY_S, INPUT_RISE_S),
        input_ac_mag: 0.0,
        driver: DriverKind::Inverter(InverterParams::default().scaled(DRIVER_SCALE)),
        receiver_cap_f,
        decap_total_f: DECAP_TOTAL_F,
        decap_sites: DECAP_SITES,
        decap_esr: DECAP_ESR_OHM,
        activity: None,
        activity_periods: 2,
    }
}

fn tran_options() -> TranOptions {
    let mut opts = TranOptions::new(DT_S, T_STOP_S);
    // Batch flows over generated netlists: a stiff corner escalates
    // through the rescue ladder instead of aborting.
    opts.rescue = RescuePolicy::full();
    opts
}

/// What a Table-1 flow reports.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowOut {
    /// Worst 50 % delay over the sinks, seconds.
    pub worst_delay_s: f64,
    /// Delay spread over the sinks, seconds.
    pub worst_skew_s: f64,
    /// Mutual inductance terms stamped.
    pub mutuals: usize,
    /// Transient steps attempted.
    pub steps: usize,
    /// Transient steps rejected.
    pub rejected: usize,
}

/// Worst delay and skew over `(stimulus, response)` pairs, with the
/// harness flows' tie and NaN handling.
fn worst_delay(
    tr: &mut Tracer,
    res: &TranResult,
    input: ind101_circuit::NodeId,
    sinks: &[ind101_circuit::NodeId],
) -> (f64, f64) {
    tr.span("circuit.measure", |_| {
        let stim = res.voltage(input);
        let mut worst: Option<f64> = None;
        let mut delays = Vec::with_capacity(sinks.len());
        for &node in sinks {
            let d = measure::delay_50(&stim, &res.voltage(node), 0.0, VDD).unwrap_or(f64::NAN);
            if worst.is_none_or(|w| d > w) {
                worst = Some(d);
            }
            delays.push(d);
        }
        (worst.unwrap_or(f64::NAN), measure::skew(&delays))
    })
}

fn count_transient(tr: &mut Tracer, res: &TranResult) {
    tr.count("circuit.transient.steps", res.steps_attempted as f64);
    tr.count("circuit.transient.rejected", res.steps_rejected as f64);
    tr.count(
        "circuit.rescue.rungs",
        res.rescue.as_ref().map_or(0, |r| r.rungs.len()) as f64,
    );
}

/// A PEEC flow: testbench, transient, delay measurement. `transient`
/// names the transient's span.
///
/// # Errors
///
/// The testbench or simulation failure, as text.
pub fn peec_flow(
    tr: &mut Tracer,
    par: &PeecParasitics,
    mode: InductanceMode,
    spec: &TestbenchSpec,
    transient: &'static str,
) -> Result<FlowOut, String> {
    let tb = tr
        .span("core.build_testbench", |_| build_testbench(par, mode, spec))
        .map_err(|e| format!("testbench: {e}"))?;
    let res = tr
        .span(transient, |_| tb.circuit.transient(&tran_options()))
        .map_err(|e| format!("{transient}: {e}"))?;
    count_transient(tr, &res);
    let sinks: Vec<_> = tb.sinks.iter().map(|(_, n)| *n).collect();
    let (worst_delay_s, worst_skew_s) = worst_delay(tr, &res, tb.input, &sinks);
    Ok(FlowOut {
        worst_delay_s,
        worst_skew_s,
        mutuals: tb.circuit.counts().mutuals,
        steps: res.steps_attempted,
        rejected: res.steps_rejected,
    })
}

/// The accelerated PEEC flow: block-diagonal sparsification by distance
/// from the clock, far sections demoted to RC, then the PEEC transient.
///
/// # Errors
///
/// The testbench or simulation failure, as text.
pub fn accel_flow(
    tr: &mut Tracer,
    case: &ClockCase,
    spec: &TestbenchSpec,
) -> Result<FlowOut, String> {
    let l = &case.par.partial_l;
    let (labels, sparsified) = tr.span("sparsify.block_diagonal", |_| {
        let labels = sections_by_signal_distance(l, &case.par.layout, BLOCK_SECTIONS);
        let s = block_diagonal(l, &labels);
        (labels, s)
    });
    let mut par = case.par.clone();
    par.partial_l.set_matrix(sparsified.matrix);
    let mask = rlc_mask(&labels, RC_FROM_SECTION);
    peec_flow(
        tr,
        &par,
        InductanceMode::Masked(mask),
        spec,
        "circuit.transient.accel",
    )
}

/// What the LOOP flow reports.
#[derive(Clone, Debug, PartialEq)]
pub struct LoopOut {
    /// Worst delay and skew.
    pub flow: FlowOut,
    /// Extracted loop resistance per sink, ohms.
    pub r_ohm: Vec<f64>,
    /// Extracted loop inductance per sink, henries.
    pub l_h: Vec<f64>,
}

/// The LOOP flow (paper Section 5): per sink, a single-frequency loop
/// R/L extraction, a lumped loop netlist with all the signal-net and
/// load capacitance at the receiver, and a transient.
///
/// # Errors
///
/// The extraction or simulation failure, as text.
pub fn loop_flow(
    tr: &mut Tracer,
    case: &ClockCase,
    spec: &TestbenchSpec,
) -> Result<LoopOut, String> {
    let par = &case.par;
    let signal_cap: f64 = par
        .segments
        .iter()
        .zip(&par.ground_cap)
        .filter(|(s, _)| par.layout.net(s.net).kind == NetKind::Signal)
        .map(|(_, c)| *c)
        .sum();
    let cap_total_f = signal_cap + spec.receiver_cap_f * case.sink_ports.len() as f64;
    let mut out = LoopOut {
        flow: FlowOut {
            worst_delay_s: f64::NAN,
            worst_skew_s: 0.0,
            mutuals: 0,
            steps: 0,
            rejected: 0,
        },
        r_ohm: Vec::new(),
        l_h: Vec::new(),
    };
    let mut worst: Option<f64> = None;
    let mut delays = Vec::new();
    for sink in &case.sink_ports {
        let port = LoopPortSpec {
            driver_port: "clk_drv".to_owned(),
            receiver_ports: vec![sink.clone()],
        };
        let ext = tr
            .span("loopind.extract_loop_rl.loop", |_| {
                extract_loop_rl(par, &port, &[LOOP_FREQ_HZ])
            })
            .map_err(|e| format!("loop extraction at {sink}: {e}"))?;
        tr.count("loopind.extract_loop_rl.loop.calls", 1.0);
        let (r, l) = ext.at(0);
        out.r_ohm.push(r);
        out.l_h.push(l);
        let net = LoopNetlistSpec {
            interconnect: LoopInterconnect::SingleFrequency {
                r_ohm: r.max(MIN_LOOP_R_OHM),
                l_h: l.max(MIN_LOOP_L_H),
            },
            segments: LOOP_SEGMENTS,
            cap_total_f,
            vdd: spec.vdd,
            input: spec.input.clone(),
            driver: Some(InverterParams::default().scaled(DRIVER_SCALE)),
        };
        let lc = tr
            .span("loopind.build_loop_circuit", |_| build_loop_circuit(&net))
            .map_err(|e| format!("loop netlist: {e}"))?;
        let res = tr
            .span("circuit.transient.loop", |_| {
                lc.circuit.transient(&tran_options())
            })
            .map_err(|e| format!("loop transient: {e}"))?;
        tr.count("circuit.transient.loop.steps", res.steps_attempted as f64);
        out.flow.steps += res.steps_attempted;
        out.flow.rejected += res.steps_rejected;
        let (d, _) = worst_delay(tr, &res, lc.input, &[lc.receiver]);
        if worst.is_none_or(|w| d > w) {
            worst = Some(d);
        }
        delays.push(d);
    }
    out.flow.worst_delay_s = worst.unwrap_or(f64::NAN);
    out.flow.worst_skew_s = measure::skew(&delays);
    Ok(out)
}

/// The Figure-3 frequencies: 13 points, three per decade from 10 MHz.
#[must_use]
pub fn fig3_freqs() -> Vec<f64> {
    (0..13)
        .map(|k| 1e7 * 10f64.powf(f64::from(k) / 3.0))
        .collect()
}

/// The Figure-3 sweep: loop R(f)/L(f) at the driver port with every
/// receiver shorted, plus the two-frequency ladder fit.
///
/// # Errors
///
/// The extraction failure, as text.
pub fn fig3_sweep(
    tr: &mut Tracer,
    par: &PeecParasitics,
    freqs: &[f64],
) -> Result<(LoopExtraction, Option<LadderFit>), String> {
    let port = LoopPortSpec::from_layout(par).ok_or("layout has no clock ports")?;
    let ext = tr
        .span("loopind.extract_loop_rl.fig3", |_| {
            extract_loop_rl(par, &port, freqs)
        })
        .map_err(|e| format!("fig3 extraction: {e}"))?;
    let lo = ext.nearest_index(LADDER_LOW_HZ);
    let hi = ext.nearest_index(LADDER_HIGH_HZ);
    let ladder = LadderFit::fit(
        (ext.freqs_hz[lo], ext.r_ohm[lo], ext.l_h[lo]),
        (ext.freqs_hz[hi], ext.r_ohm[hi], ext.l_h[hi]),
    );
    Ok((ext, ladder))
}
