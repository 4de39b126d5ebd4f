//! Extraction of all PEEC parasitics from a layout.

use ind101_extract::capacitance::{segment_coupling_cap, segment_ground_cap};
use ind101_extract::resistance::{segment_resistance, via_resistance};
use ind101_extract::PartialInductance;
use ind101_geom::{Layout, Segment, Via};
use ind101_numeric::partition::{collect_row_blocks, triangle_row_blocks};
use ind101_numeric::ParallelConfig;

/// Maximum edge-to-edge spacing (in units of wire width) at which
/// coupling capacitance between adjacent lines is extracted. Lateral
/// capacitance falls off fast (the Chern-style model's `(s/h)^-1.34`),
/// so this window loses < 1 % of the coupling — unlike inductive
/// coupling, which must *not* be windowed (that is Section 4's whole
/// point).
const COUPLING_WINDOW_FACTOR: i64 = 12;

/// All extracted parasitics of a layout, aligned with a segment list.
#[derive(Clone, Debug)]
pub struct PeecParasitics {
    /// The (subdivided) layout the extraction ran on.
    pub layout: Layout,
    /// Segment list; all per-segment vectors and the inductance matrix
    /// are indexed by position in this list.
    pub segments: Vec<Segment>,
    /// Series resistance per segment, ohms.
    pub resistance: Vec<f64>,
    /// Grounded capacitance per segment, farads.
    pub ground_cap: Vec<f64>,
    /// Coupling capacitances `(i, j, farads)` between adjacent parallel
    /// same-layer segments.
    pub coupling_caps: Vec<(usize, usize, f64)>,
    /// Full partial-inductance matrix over the segments.
    pub partial_l: PartialInductance,
    /// Vias with their resistances, ohms.
    pub via_res: Vec<(Via, f64)>,
}

impl PeecParasitics {
    /// Extracts parasitics for `layout`, first subdividing segments to
    /// at most `max_seg_len_nm` (the RLC-π discretization length), with
    /// the default [`ParallelConfig`].
    pub fn extract(layout: &Layout, max_seg_len_nm: i64) -> Self {
        Self::extract_with(layout, max_seg_len_nm, &ParallelConfig::default())
    }

    /// [`PeecParasitics::extract`] with explicit parallelism/caching
    /// configuration, threaded through both O(n²) passes (capacitive
    /// coupling scan, partial-inductance assembly). Results are
    /// bit-identical at any thread count: the coupling scan concatenates
    /// per-row-block pair lists in block order, reproducing the serial
    /// `(i, j)` lexicographic order exactly.
    pub fn extract_with(layout: &Layout, max_seg_len_nm: i64, cfg: &ParallelConfig) -> Self {
        let mut layout = layout.clone();
        layout.subdivide_segments(max_seg_len_nm);
        let tech = layout.tech().clone();
        let segments: Vec<Segment> = layout.segments().to_vec();

        let resistance = segments
            .iter()
            .map(|s| segment_resistance(&tech, s))
            .collect();
        let ground_cap = segments
            .iter()
            .map(|s| segment_ground_cap(&tech, s))
            .collect();

        let n = segments.len();
        let ranges = triangle_row_blocks(n, cfg.blocks_for(n));
        let coupling_caps = collect_row_blocks(&ranges, |rows| {
            let mut pairs = Vec::new();
            for i in rows {
                for j in (i + 1)..n {
                    let (a, b) = (&segments[i], &segments[j]);
                    if a.net == b.net || a.layer != b.layer || !a.is_parallel(b) {
                        continue;
                    }
                    let window = COUPLING_WINDOW_FACTOR * a.width_nm.max(b.width_nm);
                    if a.edge_spacing_nm(b) > window {
                        continue;
                    }
                    let c = segment_coupling_cap(&tech, a, b);
                    if c > 0.0 {
                        pairs.push((i, j, c));
                    }
                }
            }
            pairs
        });

        let partial_l = PartialInductance::extract_with(&tech, &segments, cfg);

        let via_res = layout
            .vias()
            .iter()
            .map(|v| (v.clone(), via_resistance(&tech, v)))
            .collect();

        Self {
            layout,
            segments,
            resistance,
            ground_cap,
            coupling_caps,
            partial_l,
            via_res,
        }
    }

    /// Number of extracted segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether the extraction is empty.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Total grounded capacitance, farads.
    pub fn total_ground_cap(&self) -> f64 {
        self.ground_cap.iter().sum()
    }

    /// Total series resistance, ohms (diagnostic).
    pub fn total_resistance(&self) -> f64 {
        self.resistance.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ind101_geom::generators::{generate_bus, generate_power_grid, BusSpec, PowerGridSpec};
    use ind101_geom::{um, Technology};

    #[test]
    fn bus_extraction_has_expected_structure() {
        let tech = Technology::example_copper_6lm();
        let bus = generate_bus(&tech, &BusSpec::default());
        let p = PeecParasitics::extract(&bus, um(200));
        // 4 wires of 1000 µm at 200 µm granularity → 5 segments each.
        assert_eq!(p.len(), 20);
        assert_eq!(p.resistance.len(), 20);
        assert_eq!(p.ground_cap.len(), 20);
        assert!(p.partial_l.matrix().is_positive_definite());
        // Adjacent tracks couple capacitively.
        assert!(!p.coupling_caps.is_empty());
        // Same-net collinear chunks never get coupling caps.
        for &(i, j, _) in &p.coupling_caps {
            assert_ne!(p.segments[i].net, p.segments[j].net);
        }
    }

    #[test]
    fn grid_extraction_includes_vias() {
        let tech = Technology::example_copper_6lm();
        let grid = generate_power_grid(&tech, &PowerGridSpec::default());
        let p = PeecParasitics::extract(&grid, um(100));
        assert!(!p.via_res.is_empty());
        for (_, r) in &p.via_res {
            assert!(*r > 0.0 && *r < 10.0);
        }
        assert!(p.total_ground_cap() > 0.0);
        assert!(p.total_resistance() > 0.0);
    }

    #[test]
    fn coupling_window_prunes_far_pairs() {
        let tech = Technology::example_copper_6lm();
        let spec = BusSpec {
            signals: 2,
            spacing_nm: um(100), // far apart
            ..BusSpec::default()
        };
        let bus = generate_bus(&tech, &spec);
        let p = PeecParasitics::extract(&bus, um(2000));
        assert!(p.coupling_caps.is_empty());
        // But inductive coupling is still extracted (dense L).
        assert!(p.partial_l.mutual(0, 1) > 0.0);
    }

    #[test]
    fn subdivision_multiplies_elements() {
        let tech = Technology::example_copper_6lm();
        let bus = generate_bus(&tech, &BusSpec::default());
        let coarse = PeecParasitics::extract(&bus, um(1000));
        let fine = PeecParasitics::extract(&bus, um(100));
        assert!(fine.len() > coarse.len());
        // Total resistance is preserved by subdivision.
        assert!((fine.total_resistance() - coarse.total_resistance()).abs()
            / coarse.total_resistance() < 1e-9);
    }
}
