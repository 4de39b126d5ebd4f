//! Seeded clock-over-grid testcases: the paper's global clock net over
//! a two-layer power grid (Section 6), extracted to PEEC parasitics.

use crate::reference::CANONICAL_SEED;
use crate::stats::Rng;
use crate::trace::Tracer;
use ind101_core::PeecParasitics;
use ind101_geom::generators::{
    generate_clock_spine, generate_power_grid, ClockNetSpec, PowerGridSpec,
};
use ind101_geom::{um, Technology};

/// Medium pitches a seed picks from, µm: the canonical 50 µm and ±10 %
/// on a 5 µm grid.
const MEDIUM_PITCHES_UM: [i64; 3] = [45, 50, 55];
/// Canonical Medium pitch, µm.
const MEDIUM_PITCH_UM: i64 = 50;
/// Receiver load per sink on the canonical seed, farads.
const RECEIVER_CAP_F: f64 = 30e-15;
/// Seed jitter of the receiver load, relative (±10 %).
const RECEIVER_CAP_JITTER: f64 = 0.10;

/// Clock-over-grid generator parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClockGeometry {
    /// Square region side, nm (grid and clock span it).
    pub span_nm: i64,
    /// Same-net grid stripe pitch, nm.
    pub pitch_nm: i64,
    /// Clock fingers.
    pub fingers: usize,
    /// Maximum extracted segment length, nm.
    pub seg_nm: i64,
    /// Clock spine offset from the stripe positions, nm.
    pub route_offset_nm: i64,
    /// Grid stripe width, nm.
    pub stripe_width_nm: i64,
    /// Clock spine width, nm.
    pub spine_width_nm: i64,
    /// Clock finger width, nm.
    pub finger_width_nm: i64,
}

impl ClockGeometry {
    /// The Small case (unit-test scale, ~100 segments).
    #[must_use]
    pub fn small() -> Self {
        Self {
            span_nm: um(200),
            pitch_nm: um(50),
            fingers: 2,
            seg_nm: um(60),
            route_offset_nm: um(7),
            stripe_width_nm: um(2),
            spine_width_nm: um(4),
            finger_width_nm: um(2),
        }
    }

    /// The Medium case (~320 segments) for `seed`. Seed 1 is the
    /// canonical geometry. Any other seed picks the pitch from
    /// [`MEDIUM_PITCHES_UM`] and scales every other length with it —
    /// span, segment length, spine offset and wire widths. Extraction
    /// windows are multiples of wire widths, so every seed has the same
    /// segments, couplings and circuit topology, and therefore the same
    /// amount of work, with different element values.
    #[must_use]
    pub fn medium(seed: u64) -> Self {
        let pitch_um = if seed == CANONICAL_SEED {
            MEDIUM_PITCH_UM
        } else {
            MEDIUM_PITCHES_UM[Rng::new(seed, 1).below(MEDIUM_PITCHES_UM.len())]
        };
        let scale = |canonical_nm: i64| canonical_nm * pitch_um / MEDIUM_PITCH_UM;
        Self {
            span_nm: scale(um(400)),
            pitch_nm: um(pitch_um),
            fingers: 3,
            seg_nm: scale(um(60)),
            route_offset_nm: scale(um(7)),
            stripe_width_nm: scale(um(2)),
            spine_width_nm: scale(um(4)),
            finger_width_nm: scale(um(2)),
        }
    }

    /// Generates the layout and extracts its parasitics (the
    /// `extract.peec_parasitics` span).
    #[must_use]
    pub fn extract(&self, tr: &mut Tracer) -> ClockCase {
        let tech = Technology::example_copper_6lm();
        let mut layout = generate_power_grid(
            &tech,
            &PowerGridSpec {
                width_nm: self.span_nm,
                height_nm: self.span_nm,
                pitch_nm: self.pitch_nm,
                stripe_width_nm: self.stripe_width_nm,
                ..PowerGridSpec::default()
            },
        );
        layout.merge(&generate_clock_spine(
            &tech,
            &ClockNetSpec {
                width_nm: self.span_nm,
                height_nm: self.span_nm,
                fingers: self.fingers,
                route_offset_nm: self.route_offset_nm,
                spine_width_nm: self.spine_width_nm,
                finger_width_nm: self.finger_width_nm,
                ..ClockNetSpec::default()
            },
        ));
        let par = tr.span("extract.peec_parasitics", |_| {
            PeecParasitics::extract(&layout, self.seg_nm)
        });
        let sink_ports = (0..self.fingers)
            .flat_map(|k| [format!("clk_sink_b{k}"), format!("clk_sink_t{k}")])
            .collect();
        ClockCase { par, sink_ports }
    }
}

/// An extracted clock-over-grid case.
#[derive(Clone, Debug)]
pub struct ClockCase {
    /// Parasitics (layout inside).
    pub par: PeecParasitics,
    /// Clock sink port names.
    pub sink_ports: Vec<String>,
}

/// Receiver load per sink for `seed`, farads: 30 fF on seed 1, ±10 %
/// otherwise.
#[must_use]
pub fn receiver_cap_f(seed: u64) -> f64 {
    if seed == CANONICAL_SEED {
        RECEIVER_CAP_F
    } else {
        RECEIVER_CAP_F * (1.0 + RECEIVER_CAP_JITTER * (2.0 * Rng::new(seed, 2).unit() - 1.0))
    }
}
