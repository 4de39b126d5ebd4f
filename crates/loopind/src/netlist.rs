//! Loop-model netlist construction — the paper's Figure 3(c)/(d).
//!
//! "A netlist is then constructed with the resistance and loop
//! inductance of the signal and ground grid, at one frequency … all the
//! interconnect and load capacitance is modeled as a lumped capacitance
//! at the receiver end of the signal interconnect. [Reference 5]
//! proposes the construction of a ladder circuit to model the frequency
//! dependence of resistance and inductance. The lumped RLC circuit
//! representation can be improved by increasing the number of RLC-π
//! segments."

use crate::ladder::LadderFit;
use ind101_circuit::{
    Circuit, CircuitError, InverterParams, NodeId, RescuePolicy, SourceWave, TranOptions,
    TranResult,
};

/// Interconnect representation in the loop netlist.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LoopInterconnect {
    /// Single-frequency lumped loop R and L.
    SingleFrequency {
        /// Loop resistance, ohms.
        r_ohm: f64,
        /// Loop inductance, henries.
        l_h: f64,
    },
    /// The two-frequency R₀/L₀/R₁/L₁ ladder.
    Ladder(LadderFit),
}

/// Loop netlist parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct LoopNetlistSpec {
    /// The interconnect model.
    pub interconnect: LoopInterconnect,
    /// Number of RLC-π segments the loop impedance is distributed over
    /// (the paper: "can be improved by increasing the number of RLC-π
    /// segments").
    pub segments: usize,
    /// Total capacitance lumped at the receiver end, farads.
    pub cap_total_f: f64,
    /// Supply voltage, volts.
    pub vdd: f64,
    /// Input waveform.
    pub input: SourceWave,
    /// Driver: `Some(params)` for a CMOS inverter (powered by an ideal
    /// rail — the grid is already inside the loop impedance), `None`
    /// for a direct connection of the input source.
    pub driver: Option<InverterParams>,
}

/// Default loop inductance for the single-frequency model, henries.
const DEFAULT_LOOP_L_H: f64 = 2e-9;
/// Default total line + load capacitance, farads.
const DEFAULT_CAP_TOTAL_F: f64 = 200e-15;
/// Default input-step delay before the edge launches, seconds.
const DEFAULT_INPUT_DELAY_S: f64 = 100e-12;
/// Default input-step rise time, seconds.
const DEFAULT_INPUT_RISE_S: f64 = 50e-12;
/// Resistance of an electrically transparent direct-drive hookup, ohms.
const DIRECT_DRIVE_RES_OHM: f64 = 1e-3;
/// Floor for per-segment ladder branch resistances, ohms — a zero-ohm
/// branch would alias two MNA nodes.
const MIN_BRANCH_RES_OHM: f64 = 1e-6;

impl Default for LoopNetlistSpec {
    fn default() -> Self {
        Self {
            interconnect: LoopInterconnect::SingleFrequency {
                r_ohm: 5.0,
                l_h: DEFAULT_LOOP_L_H,
            },
            segments: 4,
            cap_total_f: DEFAULT_CAP_TOTAL_F,
            vdd: 1.8,
            input: SourceWave::step(0.0, 1.8, DEFAULT_INPUT_DELAY_S, DEFAULT_INPUT_RISE_S),
            driver: Some(InverterParams::default()),
        }
    }
}

/// A constructed loop-model circuit with its probe nodes.
#[derive(Clone, Debug)]
pub struct LoopCircuit {
    /// The circuit.
    pub circuit: Circuit,
    /// Stimulus node.
    pub input: NodeId,
    /// Driver output / line near end.
    pub driver_out: NodeId,
    /// Receiver (far) end where the lumped capacitance sits.
    pub receiver: NodeId,
}

impl LoopCircuit {
    /// Transient simulation with the full robustness stack: the DC
    /// operating point may escalate through the convergence-rescue
    /// ladder (gmin-stepping, source-stepping), and the time loop runs
    /// under adaptive LTE step control seeded with `dt`.
    ///
    /// Use this instead of a plain `transient` call when sweeping loop
    /// parameters programmatically — strongly under-damped corners that
    /// would abort a fixed-step run get rescued or resolved instead.
    /// The returned result carries the rescue report and the
    /// attempted/rejected step counts for diagnostics.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Circuit::transient`]; reached only after
    /// every rescue rung has been exhausted.
    pub fn simulate_robust(&self, dt: f64, t_stop: f64) -> Result<TranResult, CircuitError> {
        let mut opts = TranOptions::new(dt, t_stop).adaptive();
        opts.rescue = RescuePolicy::full();
        self.circuit.transient(&opts)
    }
}

/// Builds the loop-model netlist.
///
/// # Errors
///
/// Rejects zero segment counts and non-positive impedances.
pub fn build_loop_circuit(spec: &LoopNetlistSpec) -> Result<LoopCircuit, CircuitError> {
    if spec.segments == 0 {
        return Err(CircuitError::InvalidOptions {
            what: "loop netlist needs at least one segment".to_owned(),
        });
    }
    let mut c = Circuit::new();
    let input = c.node("in");
    c.vsrc(input, Circuit::GND, spec.input.clone());

    let driver_out = c.node("line0");
    match &spec.driver {
        Some(p) => {
            let vdd = c.node("vdd");
            c.vsrc(vdd, Circuit::GND, SourceWave::dc(spec.vdd));
            c.inverter(input, driver_out, vdd, Circuit::GND, *p);
        }
        None => {
            // Direct drive through a negligible resistance.
            c.resistor(input, driver_out, DIRECT_DRIVE_RES_OHM);
        }
    }

    let n = spec.segments;
    let mut prev = driver_out;
    for k in 0..n {
        let next = c.node(format!("line{}", k + 1));
        match &spec.interconnect {
            LoopInterconnect::SingleFrequency { r_ohm, l_h } => {
                if !(*r_ohm > 0.0 && *l_h > 0.0) {
                    return Err(CircuitError::InvalidElement {
                        what: format!("loop R/L must be positive: {r_ohm}, {l_h}"),
                    });
                }
                let mid = c.anon_node();
                c.resistor(prev, mid, r_ohm / n as f64);
                c.inductor(mid, next, l_h / n as f64);
            }
            LoopInterconnect::Ladder(lad) => {
                // Per segment: R0/n + L0/n in series, then the shunt
                // branch R1/n ∥ L1/n bridging the series pair.
                let mid = c.anon_node();
                c.resistor(prev, mid, (lad.r0 / n as f64).max(MIN_BRANCH_RES_OHM));
                if lad.l0 > 0.0 {
                    c.inductor(mid, next, lad.l0 / n as f64);
                } else {
                    c.resistor(mid, next, MIN_BRANCH_RES_OHM);
                }
                if lad.r1 > 0.0 && lad.l1 > 0.0 {
                    let tap = c.anon_node();
                    c.resistor(prev, tap, lad.r1 / n as f64);
                    c.inductor(tap, next, lad.l1 / n as f64);
                }
            }
        }
        prev = next;
    }
    let receiver = prev;
    if spec.cap_total_f > 0.0 {
        c.capacitor(receiver, Circuit::GND, spec.cap_total_f);
    }
    Ok(LoopCircuit {
        circuit: c,
        input,
        driver_out,
        receiver,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ind101_circuit::{measure, TranOptions};

    #[test]
    fn lumped_loop_circuit_switches() {
        let spec = LoopNetlistSpec::default();
        let lc = build_loop_circuit(&spec).unwrap();
        let res = lc
            .circuit
            .transient(&TranOptions::new(1e-12, 1.5e-9))
            .unwrap();
        let v = res.voltage(lc.receiver);
        // Inverting driver: receiver falls to 0 as input rises.
        assert!(v.values[0] > 1.6);
        assert!(v.last_value() < 0.1, "final {}", v.last_value());
    }

    #[test]
    fn inductance_causes_ringing() {
        // Strong driver + big L + light damping → under-damped response.
        let spec = LoopNetlistSpec {
            interconnect: LoopInterconnect::SingleFrequency {
                r_ohm: 1.0,
                l_h: 5e-9,
            },
            driver: None,
            input: SourceWave::step(0.0, 1.8, 20e-12, 20e-12),
            ..LoopNetlistSpec::default()
        };
        let lc = build_loop_circuit(&spec).unwrap();
        let res = lc
            .circuit
            .transient(&TranOptions::new(0.5e-12, 5e-9))
            .unwrap();
        let v = res.voltage(lc.receiver);
        assert!(
            measure::overshoot(&v, 1.8) > 0.2,
            "overshoot {}",
            measure::overshoot(&v, 1.8)
        );
        assert!(measure::ring_count(&v, 1.8) >= 1);
    }

    #[test]
    fn more_segments_refine_the_model() {
        for segments in [1, 4, 16] {
            let spec = LoopNetlistSpec {
                segments,
                ..LoopNetlistSpec::default()
            };
            let lc = build_loop_circuit(&spec).unwrap();
            let counts = lc.circuit.counts();
            assert_eq!(counts.inductors, segments);
        }
    }

    #[test]
    fn ladder_interconnect_builds_parallel_branches() {
        let lad = LadderFit {
            r0: 2.0,
            l0: 1e-9,
            r1: 4.0,
            l1: 2e-9,
        };
        let spec = LoopNetlistSpec {
            interconnect: LoopInterconnect::Ladder(lad),
            segments: 2,
            ..LoopNetlistSpec::default()
        };
        let lc = build_loop_circuit(&spec).unwrap();
        let counts = lc.circuit.counts();
        // Per segment: L0 + L1 → 2 inductors.
        assert_eq!(counts.inductors, 4);
        let res = lc
            .circuit
            .transient(&TranOptions::new(1e-12, 2e-9))
            .unwrap();
        assert!(res.voltage(lc.receiver).last_value() < 0.1);
    }

    #[test]
    fn robust_simulation_matches_fixed_step() {
        let spec = LoopNetlistSpec::default();
        let lc = build_loop_circuit(&spec).unwrap();
        let fixed = lc
            .circuit
            .transient(&TranOptions::new(1e-12, 1.5e-9))
            .unwrap();
        let robust = lc.simulate_robust(1e-12, 1.5e-9).unwrap();
        // The default loop circuit needs no rescue, but the report must
        // be present and record that plain Newton sufficed.
        let report = robust.rescue.as_ref().expect("rescue report");
        assert!(report.plain_sufficed());
        // Adaptive stepping tracks the fixed-step waveform closely.
        let vf = fixed.voltage(lc.receiver);
        let vr = robust.voltage(lc.receiver);
        for (&t, &v) in vf.time.iter().zip(&vf.values) {
            assert!(
                (vr.sample(t) - v).abs() < 0.05,
                "mismatch at t={t}: {} vs {v}",
                vr.sample(t)
            );
        }
        assert!(robust.steps_attempted > 0);
    }

    #[test]
    fn invalid_specs_rejected() {
        let spec = LoopNetlistSpec {
            segments: 0,
            ..LoopNetlistSpec::default()
        };
        assert!(build_loop_circuit(&spec).is_err());
        let spec = LoopNetlistSpec {
            interconnect: LoopInterconnect::SingleFrequency {
                r_ohm: -1.0,
                l_h: 1e-9,
            },
            ..LoopNetlistSpec::default()
        };
        assert!(build_loop_circuit(&spec).is_err());
    }
}
