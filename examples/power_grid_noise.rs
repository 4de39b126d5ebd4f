//! Power-grid noise analysis — the paper's introduction lists
//! "increased power grid noise" among the inductance effects; this
//! example measures IR drop and L·di/dt noise on a grid under
//! statistical switching activity, with and without package inductance
//! and decoupling capacitance.
//!
//! ```text
//! cargo run --release --example power_grid_noise
//! ```

use ind101::circuit::{measure, TranOptions};
use ind101::geom::generators::{
    generate_clock_spine, generate_power_grid, ClockNetSpec, PowerGridSpec,
};
use ind101::geom::{um, NetKind, Point, Technology};
use ind101::peec::activity::ActivitySpec;
use ind101::peec::testbench::{build_testbench, TestbenchSpec};
use ind101::peec::{InductanceMode, PeecParasitics};

fn main() {
    let tech = Technology::example_copper_6lm();
    let mut layout = generate_power_grid(
        &tech,
        &PowerGridSpec {
            width_nm: um(300),
            height_nm: um(300),
            pitch_nm: um(50),
            ..PowerGridSpec::default()
        },
    );
    // A driver is needed for the testbench; the clock also loads the grid.
    let clock = generate_clock_spine(
        &tech,
        &ClockNetSpec {
            width_nm: um(300),
            height_nm: um(300),
            fingers: 2,
            ..ClockNetSpec::default()
        },
    );
    layout.merge(&clock);
    let par = PeecParasitics::extract(&layout, um(60));

    println!("configuration                      worst Vdd droop   worst Vss bounce");
    println!("---------------------------------------------------------------------");
    for (label, decap_pf, activity_ma) in [
        ("quiet grid, no decap      ", 0.0, 0.0),
        ("switching activity, no decap", 0.0, 120.0),
        ("switching activity + 20 pF decap", 20.0, 120.0),
    ] {
        let spec = TestbenchSpec {
            decap_total_f: decap_pf * 1e-12,
            activity: (activity_ma > 0.0).then_some(ActivitySpec {
                sites: 12,
                total_peak_a: activity_ma * 1e-3,
                period_s: 400e-12,
                pulse_width_s: 120e-12,
                seed: 99,
            }),
            activity_periods: 3,
            ..TestbenchSpec::default()
        };
        let tb = build_testbench(&par, InductanceMode::Full, &spec).expect("testbench");
        let res = tb
            .circuit
            .transient(&TranOptions::new(2e-12, 1.2e-9))
            .expect("transient");

        // Probe the grid at the chip center: nearest vdd/vss nodes.
        let center = Point::new(um(150), um(150));
        let vdd_node = tb
            .model
            .nearest_node_of_kind(&par, NetKind::Power, center)
            .expect("vdd node");
        let vss_node = tb
            .model
            .nearest_node_of_kind(&par, NetKind::Ground, center)
            .expect("vss node");
        let v_vdd = res.voltage(vdd_node);
        let v_vss = res.voltage(vss_node);
        let droop = measure::undershoot(&v_vdd, spec.vdd);
        let bounce = v_vss.max().max(0.0);
        println!(
            "{label:<34} {:>8.1} mV        {:>8.1} mV",
            droop * 1e3,
            bounce * 1e3
        );
    }
    println!(
        "\n(decoupling capacitance \"reduces IR-drop and changes current \
         distribution by allowing current to jump from one grid to the \
         other\" — the paper's Section 3.)"
    );
}
