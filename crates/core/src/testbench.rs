//! Full-testbench assembly: the paper's device layer around the PEEC
//! interconnect model.
//!
//! Adds to a [`PeecModel`]:
//!
//! * **pad/package models** — series R·L from ideal external supplies to
//!   the grid's pad ports ("the package planes are ideal … the package
//!   is modeled as a bar including the pad and a via");
//! * **drivers** — CMOS inverters drawing current from the local grid
//!   (so the paper's `I1`/`I2`/`I3` loops of Figure 1 exist in the
//!   netlist), or a linear Thévenin stage for pre-layout estimation;
//! * **receivers** — gate load capacitance split between the local
//!   power and ground grids (the paper's charging and discharging
//!   current paths);
//! * **decoupling capacitance** — series R·C between grid nodes modeling
//!   the 80–90 % of gates that do not switch;
//! * **switching activity** — the statistical current sources of
//!   [`crate::activity`].

use crate::activity::{attach_activity, ActivitySpec};
use crate::model::{InductanceMode, PeecModel};
use crate::parasitics::PeecParasitics;
use ind101_circuit::{Circuit, CircuitError, InverterParams, NodeId, SourceWave};
use ind101_geom::{NetKind, PortKind};

/// Driver model attached at the signal's driver port.
#[derive(Clone, Debug, PartialEq)]
pub enum DriverKind {
    /// CMOS inverter powered from the local grid.
    Inverter(InverterParams),
    /// Linear Thévenin stage (output resistance, driven by the input
    /// wave directly) — used by the loop-model methodology.
    Thevenin {
        /// Output resistance, ohms.
        r_out: f64,
    },
}

/// Testbench specification.
#[derive(Clone, Debug, PartialEq)]
pub struct TestbenchSpec {
    /// Supply voltage, volts.
    pub vdd: f64,
    /// Input waveform at the driver.
    pub input: SourceWave,
    /// AC magnitude of the input stimulus, volts (0 disables the
    /// testbench in AC analysis; set to 1 for transfer functions).
    pub input_ac_mag: f64,
    /// Driver model.
    pub driver: DriverKind,
    /// Receiver gate capacitance per sink, farads.
    pub receiver_cap_f: f64,
    /// Total distributed decoupling capacitance, farads (0 disables).
    pub decap_total_f: f64,
    /// Number of decap sites.
    pub decap_sites: usize,
    /// Decap effective series resistance per site, ohms.
    pub decap_esr: f64,
    /// Optional quiescent switching activity.
    pub activity: Option<ActivitySpec>,
    /// Number of activity periods covered by the simulation.
    pub activity_periods: usize,
}

/// Default input-step delay before the edge launches, seconds.
const DEFAULT_INPUT_DELAY_S: f64 = 100e-12;
/// Default input-step rise time, seconds.
const DEFAULT_INPUT_RISE_S: f64 = 50e-12;
/// Default receiver (gate) load capacitance, farads.
const DEFAULT_RECEIVER_CAP_F: f64 = 30e-15;
/// Default total decoupling capacitance across the grid, farads.
const DEFAULT_DECAP_TOTAL_F: f64 = 20e-12;
/// Floor for series resistances stamped from technology parameters,
/// ohms — a zero-ohm pad would alias two MNA nodes.
const MIN_SERIES_RES_OHM: f64 = 1e-6;
/// Floor for the decap effective series resistance, ohms.
const MIN_DECAP_ESR_OHM: f64 = 1e-3;

impl Default for TestbenchSpec {
    fn default() -> Self {
        Self {
            vdd: 1.8,
            input: SourceWave::step(0.0, 1.8, DEFAULT_INPUT_DELAY_S, DEFAULT_INPUT_RISE_S),
            input_ac_mag: 0.0,
            driver: DriverKind::Inverter(InverterParams::default()),
            receiver_cap_f: DEFAULT_RECEIVER_CAP_F,
            decap_total_f: DEFAULT_DECAP_TOTAL_F,
            decap_sites: 8,
            decap_esr: 2.0,
            activity: None,
            activity_periods: 2,
        }
    }
}

/// A fully assembled testbench ready for transient simulation.
#[derive(Clone, Debug)]
pub struct Testbench {
    /// The complete circuit (interconnect + devices + pads).
    pub circuit: Circuit,
    /// Driver input node (stimulus attaches here).
    pub input: NodeId,
    /// Driver output node (start of the signal interconnect).
    pub driver_out: NodeId,
    /// Sink name → node, one per receiver port.
    pub sinks: Vec<(String, NodeId)>,
    /// Ideal external Vdd node (before the pad parasitics).
    pub vdd_ext: NodeId,
    /// Segment→node mapping etc. from the underlying model.
    pub model: PeecModel,
}

/// Builds a testbench around a signal net embedded in a grid layout.
///
/// The layout must contain one `Driver` port and at least one `Receiver`
/// port; pads are optional (layouts without supply grids fall back to
/// ideal local supplies).
///
/// # Errors
///
/// Propagates model-construction failures; returns
/// [`CircuitError::InvalidElement`] if the layout lacks a driver port.
pub fn build_testbench(
    par: &PeecParasitics,
    mode: InductanceMode,
    spec: &TestbenchSpec,
) -> Result<Testbench, CircuitError> {
    let model = PeecModel::build(par, mode)?;
    let mut circuit = model.circuit.clone();
    let tech = par.layout.tech().clone();

    // --- External supplies and pad/package parasitics -------------------
    let vdd_ext = circuit.node("vdd_ext");
    circuit.vsrc(vdd_ext, Circuit::GND, SourceWave::dc(spec.vdd));
    let mut has_pads = false;
    for port in par.layout.ports() {
        let (ext, name_tag) = match port.kind {
            PortKind::PowerPad => (vdd_ext, "vdd"),
            PortKind::GroundPad => (Circuit::GND, "vss"),
            _ => continue,
        };
        let Some(pad_node) = model.node(port.node) else {
            continue;
        };
        has_pads = true;
        let mid = circuit.node(format!("pad_{}_{}", name_tag, port.name));
        circuit.resistor(ext, mid, tech.pad_res_ohm.max(MIN_SERIES_RES_OHM));
        if tech.pad_ind_h > 0.0 {
            circuit.inductor(mid, pad_node, tech.pad_ind_h);
        } else {
            circuit.resistor(mid, pad_node, MIN_SERIES_RES_OHM);
        }
    }

    // Local supply taps: nearest grid nodes, or ideal rails if the
    // layout has no supply nets at all.
    let driver_port = par
        .layout
        .ports_of_kind(PortKind::Driver)
        .next()
        .ok_or_else(|| CircuitError::InvalidElement {
            what: "layout has no driver port".to_owned(),
        })?
        .clone();
    let driver_out = model
        .node(driver_port.node)
        .ok_or(CircuitError::UnknownNode { index: 0 })?;

    let supply_at = |circuit: &mut Circuit, kind: NetKind, at| -> NodeId {
        match model.nearest_node_of_kind(par, kind, at) {
            Some(n) => n,
            None => {
                if kind == NetKind::Power {
                    if has_pads {
                        vdd_ext
                    } else {
                        // Ideal local rail.
                        circuit.node("vdd_ideal")
                    }
                } else {
                    Circuit::GND
                }
            }
        }
    };

    // If there is no power grid, vdd_ideal must still be driven.
    let vdd_local_probe = model.nearest_node_of_kind(par, NetKind::Power, driver_port.node.at);
    if vdd_local_probe.is_none() && !has_pads {
        let n = circuit.node("vdd_ideal");
        circuit.vsrc(n, Circuit::GND, SourceWave::dc(spec.vdd));
    }

    // --- Driver ----------------------------------------------------------
    let input = circuit.node("drv_in");
    circuit.vsrc_ac(input, Circuit::GND, spec.input.clone(), spec.input_ac_mag);
    match &spec.driver {
        DriverKind::Inverter(p) => {
            let vdd_tap = supply_at(&mut circuit, NetKind::Power, driver_port.node.at);
            let vss_tap = supply_at(&mut circuit, NetKind::Ground, driver_port.node.at);
            circuit.inverter(input, driver_out, vdd_tap, vss_tap, *p);
        }
        DriverKind::Thevenin { r_out } => {
            circuit.resistor(input, driver_out, *r_out);
        }
    }

    // --- Receivers ---------------------------------------------------------
    let mut sinks = Vec::new();
    for port in par.layout.ports_of_kind(PortKind::Receiver) {
        let Some(node) = model.node(port.node) else {
            continue;
        };
        // Gate capacitance splits between the local power and ground
        // grids — the paper's I2 (to ground) and I3 (to power) loops.
        let vdd_tap = supply_at(&mut circuit, NetKind::Power, port.node.at);
        let vss_tap = supply_at(&mut circuit, NetKind::Ground, port.node.at);
        let half = 0.5 * spec.receiver_cap_f;
        if half > 0.0 {
            if vdd_tap != node {
                circuit.capacitor(node, vdd_tap, half);
            }
            if vss_tap != node {
                circuit.capacitor(node, vss_tap, half);
            } else {
                circuit.capacitor(node, Circuit::GND, half);
            }
        }
        sinks.push((port.name.clone(), node));
    }

    // --- Decoupling capacitance -------------------------------------------
    if spec.decap_total_f > 0.0 && spec.decap_sites > 0 {
        let vdd_nodes = model.nodes_of_kind(par, NetKind::Power);
        let vss_nodes = model.nodes_of_kind(par, NetKind::Ground);
        if !vdd_nodes.is_empty() && !vss_nodes.is_empty() {
            let per_site = spec.decap_total_f / spec.decap_sites as f64;
            for k in 0..spec.decap_sites {
                let vdd_n = vdd_nodes[(k * vdd_nodes.len()) / spec.decap_sites];
                // Nearest ground node by node-list pairing (uniform spread).
                let vss_n = vss_nodes[(k * vss_nodes.len()) / spec.decap_sites];
                let mid = circuit.anon_node();
                circuit.resistor(vdd_n, mid, spec.decap_esr.max(MIN_DECAP_ESR_OHM));
                circuit.capacitor(mid, vss_n, per_site);
            }
        }
    }

    // --- Switching activity -------------------------------------------------
    if let Some(act) = &spec.activity {
        let vdd_nodes = model.nodes_of_kind(par, NetKind::Power);
        let vss_nodes = model.nodes_of_kind(par, NetKind::Ground);
        let pairs: Vec<(NodeId, NodeId)> = vdd_nodes
            .iter()
            .zip(vss_nodes.iter())
            .map(|(&a, &b)| (a, b))
            .collect();
        attach_activity(&mut circuit, &pairs, act, spec.activity_periods);
    }

    Ok(Testbench {
        circuit,
        input,
        driver_out,
        sinks,
        vdd_ext,
        model,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ind101_circuit::{measure, TranOptions};
    use ind101_geom::generators::{
        generate_bus, generate_clock_spine, generate_power_grid, BusSpec, ClockNetSpec,
        PowerGridSpec,
    };
    use ind101_geom::{um, Technology};

    fn clock_over_grid_par() -> PeecParasitics {
        let tech = Technology::example_copper_6lm();
        let grid_spec = PowerGridSpec {
            width_nm: um(200),
            height_nm: um(200),
            pitch_nm: um(50),
            ..PowerGridSpec::default()
        };
        let mut layout = generate_power_grid(&tech, &grid_spec);
        let clk_spec = ClockNetSpec {
            width_nm: um(200),
            height_nm: um(200),
            fingers: 2,
            ..ClockNetSpec::default()
        };
        let clock = generate_clock_spine(&tech, &clk_spec);
        layout.merge(&clock);
        PeecParasitics::extract(&layout, um(60))
    }

    #[test]
    fn testbench_builds_with_all_features() {
        let par = clock_over_grid_par();
        let spec = TestbenchSpec {
            activity: Some(ActivitySpec {
                sites: 4,
                ..ActivitySpec::default()
            }),
            ..TestbenchSpec::default()
        };
        let tb = build_testbench(&par, InductanceMode::None, &spec).unwrap();
        assert_eq!(tb.sinks.len(), 4);
        let counts = tb.circuit.counts();
        assert!(counts.transistors == 2);
        assert!(counts.sources > 2);
        assert!(counts.capacitors > 0);
    }

    #[test]
    fn rc_clock_transient_switches_all_sinks() {
        let par = clock_over_grid_par();
        let spec = TestbenchSpec {
            decap_total_f: 5e-12,
            ..TestbenchSpec::default()
        };
        let tb = build_testbench(&par, InductanceMode::None, &spec).unwrap();
        let res = tb
            .circuit
            .transient(&TranOptions::new(2e-12, 800e-12))
            .unwrap();
        let vin = res.voltage(tb.input);
        for (name, node) in &tb.sinks {
            let v = res.voltage(*node);
            // Driver inverts: sinks fall from ~vdd to ~0.
            assert!(
                v.values[0] > 1.6 && v.last_value() < 0.2,
                "sink {name}: {} → {}",
                v.values[0],
                v.last_value()
            );
            let d = measure::delay_50(&vin, &v, 0.0, 1.8);
            assert!(d.is_some(), "sink {name} has a 50% crossing");
        }
    }

    #[test]
    fn thevenin_driver_is_linear() {
        let tech = Technology::example_copper_6lm();
        let bus = generate_bus(&tech, &BusSpec::default());
        let par = PeecParasitics::extract(&bus, um(250));
        let spec = TestbenchSpec {
            driver: DriverKind::Thevenin { r_out: 50.0 },
            decap_total_f: 0.0,
            ..TestbenchSpec::default()
        };
        let tb = build_testbench(&par, InductanceMode::Full, &spec).unwrap();
        assert!(!tb.circuit.is_nonlinear());
        let res = tb
            .circuit
            .transient(&TranOptions::new(1e-12, 600e-12))
            .unwrap();
        // Non-inverting linear driver: bit0 receiver follows the input up.
        let (_, sink) = tb
            .sinks
            .iter()
            .find(|(n, _)| n == "bit0_rcv")
            .expect("bus sink");
        let v = res.voltage(*sink);
        assert!(v.last_value() > 1.6, "final {}", v.last_value());
    }

    #[test]
    fn missing_driver_port_is_an_error() {
        let tech = Technology::example_copper_6lm();
        let grid = generate_power_grid(&tech, &PowerGridSpec::default());
        let par = PeecParasitics::extract(&grid, um(100));
        let err = build_testbench(&par, InductanceMode::None, &TestbenchSpec::default());
        assert!(err.is_err());
    }
}
