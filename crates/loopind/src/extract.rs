//! FastHenry-style loop R(f)/L(f) extraction.
//!
//! [`extract_loop_rl_resilient`] is the only extraction; [`extract_loop_rl`]
//! is its strict call with the `Auto` backend and default parallelism.

use ind101_circuit::{
    AcOptions, Circuit, CircuitError, MatrixFreeAcOptions, NodeId, RecoveryReport,
    ResilienceOptions, SourceWave,
};
use ind101_core::{InductanceMode, PeecModel, PeecParasitics};
use ind101_extract::GridInductanceOperator;
use ind101_geom::{NetKind, PortKind, Segment};
use ind101_numeric::{Complex64, LinearOperator, ParallelConfig};

use crate::backend::ExtractionBackend;

/// Resistance of the artificial short tying the receiver to local
/// ground, ohms (small against any wire resistance).
const SHORT_RES: f64 = 1e-4;

/// Port definition for the loop extraction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoopPortSpec {
    /// Name of the driver port (the loop port's positive terminal).
    pub driver_port: String,
    /// Receiver ports shorted to the local ground during extraction.
    pub receiver_ports: Vec<String>,
}

impl LoopPortSpec {
    /// Builds the spec from a layout's ports: the first `Driver` port
    /// and all `Receiver` ports.
    pub fn from_layout(par: &PeecParasitics) -> Option<Self> {
        let driver = par.layout.ports_of_kind(PortKind::Driver).next()?;
        let receivers = par
            .layout
            .ports_of_kind(PortKind::Receiver)
            .map(|p| p.name.clone())
            .collect();
        Some(Self {
            driver_port: driver.name.clone(),
            receiver_ports: receivers,
        })
    }
}

/// Extracted loop impedance over frequency.
#[derive(Clone, Debug, PartialEq)]
pub struct LoopExtraction {
    /// Sweep frequencies, hertz.
    pub freqs_hz: Vec<f64>,
    /// Loop resistance `Re Z(f)`, ohms.
    pub r_ohm: Vec<f64>,
    /// Loop inductance `Im Z(f) / ω`, henries.
    pub l_h: Vec<f64>,
}

impl LoopExtraction {
    /// `(R, L)` at sweep index `idx`.
    pub fn at(&self, idx: usize) -> (f64, f64) {
        (self.r_ohm[idx], self.l_h[idx])
    }

    /// Index of the sweep point nearest to `f_hz` (0 for an empty
    /// sweep).
    pub fn nearest_index(&self, f_hz: f64) -> usize {
        self.freqs_hz
            .iter()
            .enumerate()
            .min_by(|a, b| {
                let da = (a.1 - f_hz).abs();
                let db = (b.1 - f_hz).abs();
                da.total_cmp(&db)
            })
            .map_or(0, |(i, _)| i)
    }
}

/// Floor for series resistances stamped from technology parameters,
/// ohms — a zero-ohm pad would alias two MNA nodes.
const MIN_SERIES_RES_OHM: f64 = 1e-6;

/// Extracts loop `R(f)` and `L(f)` at the driver port.
///
/// The extraction circuit is the layout's full R + partial-L network
/// (mutuals included, capacitance excluded); receivers are shorted to
/// the nearest ground (or shield) conductor; supply pads are tied to the
/// AC reference through the pad impedance; a 1 A AC probe drives the
/// port and the port voltage is the loop impedance.
///
/// This is the strict call of [`extract_loop_rl_resilient`]: the default
/// [`ParallelConfig`], [`ExtractionBackend::Auto`] and
/// [`ResilienceOptions::strict`].
///
/// # Errors
///
/// Fails if the named ports don't exist, the network is singular, the
/// Krylov solve does not converge, or `IND101_EXTRACTION_BACKEND` is
/// set to an unrecognized value.
pub fn extract_loop_rl(
    par: &PeecParasitics,
    spec: &LoopPortSpec,
    freqs_hz: &[f64],
) -> Result<LoopExtraction, CircuitError> {
    extract_loop_rl_resilient(
        par,
        spec,
        freqs_hz,
        &ParallelConfig::default(),
        ExtractionBackend::Auto,
        &ResilienceOptions::strict(),
    )
    .map(|got| got.extraction)
}

/// The loop-extraction probe circuit, before any AC sweep runs.
struct ProbeCircuit {
    circuit: Circuit,
    driver_node: NodeId,
    port_return: NodeId,
    /// Index of the PEEC partial-inductance system in the circuit (the
    /// pad inductors add their own single-branch systems *after* it).
    inductor_system: Option<usize>,
    /// Segments behind the PEEC system's branches, in branch order.
    inductive: Vec<Segment>,
}

/// Builds the extraction circuit shared by every backend: the layout's
/// R + partial-L network (capacitance stripped), supply pads tied to
/// the AC reference, receivers shorted to local ground, and a 1 A AC
/// probe across the driver port.
fn build_probe(par: &PeecParasitics, spec: &LoopPortSpec) -> Result<ProbeCircuit, CircuitError> {
    // Capacitance-free clone of the parasitics.
    let mut rl_par = par.clone();
    for c in &mut rl_par.ground_cap {
        *c = 0.0;
    }
    rl_par.coupling_caps.clear();

    let model = PeecModel::build(&rl_par, InductanceMode::Full)?;
    let mut circuit = model.circuit.clone();
    let tech = par.layout.tech().clone();

    // Supply pads tie the return grids to the AC reference.
    for port in par.layout.ports() {
        if !matches!(port.kind, PortKind::PowerPad | PortKind::GroundPad) {
            continue;
        }
        if let Some(node) = model.node(port.node) {
            let mid = circuit.anon_node();
            circuit.resistor(node, mid, tech.pad_res_ohm.max(MIN_SERIES_RES_OHM));
            if tech.pad_ind_h > 0.0 {
                circuit.inductor(mid, Circuit::GND, tech.pad_ind_h);
            } else {
                circuit.resistor(mid, Circuit::GND, MIN_SERIES_RES_OHM);
            }
        }
    }

    let driver_port = par
        .layout
        .port(&spec.driver_port)
        .ok_or(CircuitError::InvalidElement {
            what: format!("no port named {}", spec.driver_port),
        })?
        .clone();
    let driver_node = model
        .node(driver_port.node)
        .ok_or(CircuitError::UnknownNode { index: 0 })?;

    // Local return terminal: nearest ground conductor to the driver
    // (falls back to shields, then to the global reference).
    let local_return = |at| {
        model
            .nearest_node_of_kind(par, NetKind::Ground, at)
            .or_else(|| model.nearest_node_of_kind(par, NetKind::Shield, at))
            .unwrap_or(Circuit::GND)
    };
    let port_return = local_return(driver_port.node.at);

    // Short every receiver to its local ground.
    for name in &spec.receiver_ports {
        let port = par
            .layout
            .port(name)
            .ok_or(CircuitError::InvalidElement {
                what: format!("no port named {name}"),
            })?;
        let Some(node) = model.node(port.node) else {
            continue;
        };
        let ret = local_return(port.node.at);
        if ret != node {
            circuit.resistor(node, ret, SHORT_RES);
        } else {
            circuit.resistor(node, Circuit::GND, SHORT_RES);
        }
    }

    // 1 A AC probe across the port.
    circuit.isrc_ac(port_return, driver_node, SourceWave::dc(0.0), 1.0);

    let inductive = model
        .inductive_segments
        .iter()
        .map(|&i| rl_par.segments[i].clone())
        .collect();
    Ok(ProbeCircuit {
        circuit,
        driver_node,
        port_return,
        inductor_system: model.inductor_system_index,
        inductive,
    })
}

/// A loop extraction carried out under the solve-resilience layer:
/// `extraction` holds `R(f)`/`L(f)` for the frequencies that solved
/// (possibly a subset of the request), `report` records the outcome of
/// every requested frequency.
#[derive(Clone, Debug)]
pub struct ResilientLoopExtraction {
    /// `R(f)`/`L(f)` at the solved frequencies only.
    pub extraction: LoopExtraction,
    /// Per-frequency recovery telemetry for the whole request.
    pub report: RecoveryReport,
}

/// Extracts loop `R(f)` and `L(f)` at the driver port (see
/// [`extract_loop_rl`]) with an explicit parallelism configuration,
/// [`ExtractionBackend`] and solve-resilience layer.
///
/// The underlying AC sweep plans on its first frequency and runs the
/// rest on `cfg.threads` worker threads, in deterministic frequency
/// order. `Dense` stamps the full partial-inductance matrix into the
/// MNA system and factorizes directly — the reference oracle.
/// `MatrixFree` keeps the `−jωM` block out of the factorized matrix and
/// applies it through a [`LinearOperator`] inside preconditioned GMRES:
/// an FFT-accelerated block-Toeplitz operator when the inductive
/// segments form a regular filament lattice
/// ([`GridInductanceOperator::detect`]), a dense matvec otherwise. A
/// matrix-free request with no inductive system runs the direct sweep.
/// `Auto` defers to `IND101_EXTRACTION_BACKEND`, then to problem size.
///
/// The backend resolution honours the memory budget
/// ([`ExtractionBackend::resolve_with_budget`]): a dense path whose
/// stamped partial-inductance block would not fit is refused with a
/// typed [`CircuitError::BudgetExceeded`] before any allocation. The
/// AC sweep runs under `resilience`'s budget, cancellation token,
/// rescue ladder (matrix-free path) and
/// [`ind101_circuit::FailurePolicy`], so a single bad frequency skips
/// with a typed record instead of destroying the sweep, and the caller
/// gets back whatever solved. With no fault and an unlimited budget
/// every resilience setting gives the same bits.
///
/// # Errors
///
/// Fails if the named ports don't exist, `IND101_EXTRACTION_BACKEND`
/// is set to an unrecognized value, the backend resolution is refused
/// by the budget, or — under `FailurePolicy::Abort` — any frequency
/// fails to solve.
pub fn extract_loop_rl_resilient(
    par: &PeecParasitics,
    spec: &LoopPortSpec,
    freqs_hz: &[f64],
    cfg: &ParallelConfig,
    backend: ExtractionBackend,
    resilience: &ResilienceOptions,
) -> Result<ResilientLoopExtraction, CircuitError> {
    let probe = build_probe(par, spec)?;
    let resolved = backend.resolve_with_budget(probe.inductive.len(), &resilience.budget)?;
    let opts = AcOptions {
        freqs_hz: freqs_hz.to_vec(),
    };
    let sweep = match (resolved, probe.inductor_system) {
        (ExtractionBackend::MatrixFree, Some(sys)) => {
            let grid = GridInductanceOperator::detect(par.layout.tech(), &probe.inductive);
            let op: &dyn LinearOperator<Complex64> = match grid.as_ref() {
                Some(g) => g,
                None => &probe.circuit.inductor_systems()[sys].m,
            };
            probe.circuit.ac_sweep_matrix_free_resilient(
                &opts,
                &[(sys, op)],
                &MatrixFreeAcOptions::default(),
                resilience,
            )?
        }
        _ => probe
            .circuit
            .ac_sweep_resilient(&opts, cfg, resilience, None)?,
    };

    // The sweeps keep only the solved frequencies in `ac`; R/L are
    // computed for exactly those.
    let solved_freqs = sweep.ac.freqs_hz.clone();
    let mut r_ohm = Vec::with_capacity(solved_freqs.len());
    let mut l_h = Vec::with_capacity(solved_freqs.len());
    for (i, &f) in solved_freqs.iter().enumerate() {
        let z = sweep.ac.voltage(probe.driver_node, i) - sweep.ac.voltage(probe.port_return, i);
        r_ohm.push(z.re);
        l_h.push(z.im / (2.0 * std::f64::consts::PI * f));
    }
    Ok(ResilientLoopExtraction {
        extraction: LoopExtraction {
            freqs_hz: solved_freqs,
            r_ohm,
            l_h,
        },
        report: sweep.report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ind101_extract::mutual_inductance::aligned_filament_mutual;
    use ind101_extract::self_inductance::bar_self_inductance;
    use ind101_geom::generators::{generate_bus, BusSpec, ShieldPattern};
    use ind101_geom::{um, Technology};

    /// Signal wire with one explicit ground return next to it.
    fn pair(len_um: i64, spacing_um: i64) -> PeecParasitics {
        let tech = Technology::example_copper_6lm();
        let spec = BusSpec {
            signals: 1,
            length_nm: um(len_um),
            spacing_nm: um(spacing_um),
            shields: ShieldPattern::Explicit(vec![1]),
            ..BusSpec::default()
        };
        let bus = generate_bus(&tech, &spec);
        PeecParasitics::extract(&bus, um(len_um)) // single segment per wire
    }

    #[test]
    fn low_frequency_resistance_is_loop_resistance() {
        let par = pair(1000, 2);
        let spec = LoopPortSpec::from_layout(&par).unwrap();
        let ext = extract_loop_rl(&par, &spec, &[1e6]).unwrap();
        // R_loop ≈ R_signal + R_return (series at DC).
        let expect: f64 = par.resistance.iter().sum();
        assert!(
            (ext.r_ohm[0] - expect).abs() / expect < 0.02,
            "R {} vs {}",
            ext.r_ohm[0],
            expect
        );
    }

    #[test]
    fn high_frequency_inductance_matches_loop_formula() {
        let par = pair(1000, 2);
        let spec = LoopPortSpec::from_layout(&par).unwrap();
        let ext = extract_loop_rl(&par, &spec, &[100e9]).unwrap();
        // L_loop = L1 + L2 − 2M for a simple two-wire loop.
        let tech = Technology::example_copper_6lm();
        let t = tech.layer(ind101_geom::LayerId(5)).thickness_nm as f64 * 1e-9;
        let l_self = bar_self_inductance(1e-3, 1e-6, t).unwrap();
        let m = aligned_filament_mutual(1e-3, 3e-6).unwrap(); // pitch = w + s = 3 µm
        let expect = 2.0 * l_self - 2.0 * m;
        let got = ext.l_h[0];
        assert!(
            (got - expect).abs() / expect < 0.1,
            "L {got:e} vs {expect:e}"
        );
    }

    #[test]
    fn inductance_decreases_with_frequency() {
        // The paper's Figure 3(b): L falls as return currents tighten.
        // Use a bus with several alternative returns so the current can
        // redistribute.
        let tech = Technology::example_copper_6lm();
        let spec = BusSpec {
            signals: 1,
            length_nm: um(2000),
            spacing_nm: um(2),
            shields: ShieldPattern::Explicit(vec![1, 2, 3]),
            tie_shields: true,
            ..BusSpec::default()
        };
        let bus = generate_bus(&tech, &spec);
        let par = PeecParasitics::extract(&bus, um(2000));
        let pspec = LoopPortSpec::from_layout(&par).unwrap();
        let ext = extract_loop_rl(&par, &pspec, &[1e7, 1e9, 100e9]).unwrap();
        assert!(
            ext.l_h[0] > ext.l_h[1] && ext.l_h[1] > ext.l_h[2],
            "L(f) must decrease: {:?}",
            ext.l_h
        );
        // And R grows (current crowding into the nearest return).
        assert!(ext.r_ohm[2] > ext.r_ohm[0]);
    }

    #[test]
    fn closer_return_means_lower_inductance() {
        let near = pair(1000, 1);
        let far = pair(1000, 20);
        let f = [50e9];
        let l_near = extract_loop_rl(&near, &LoopPortSpec::from_layout(&near).unwrap(), &f)
            .unwrap()
            .l_h[0];
        let l_far = extract_loop_rl(&far, &LoopPortSpec::from_layout(&far).unwrap(), &f)
            .unwrap()
            .l_h[0];
        assert!(l_near < l_far);
    }

    #[test]
    fn nearest_index_lookup() {
        let ext = LoopExtraction {
            freqs_hz: vec![1e6, 1e9, 1e12],
            r_ohm: vec![1.0, 2.0, 3.0],
            l_h: vec![3e-9, 2e-9, 1e-9],
        };
        assert_eq!(ext.nearest_index(6e8), 1);
        assert_eq!(ext.at(2), (3.0, 1e-9));
    }

    #[test]
    fn filamentized_extraction_exposes_current_crowding() {
        // The paper's Section 3 note: split wide conductors before
        // computing inductance. Solid bars give frequency-flat loop R;
        // filaments let the current crowd and R(f) rises.
        let tech = Technology::example_copper_6lm();
        let spec = BusSpec {
            signals: 1,
            length_nm: um(1000),
            width_nm: um(12),
            spacing_nm: um(4),
            shields: ShieldPattern::Explicit(vec![1]),
            ..BusSpec::default()
        };
        let freqs = [1e8, 1e11];
        let run = |filaments: Option<usize>| {
            let mut layout = generate_bus(&tech, &spec);
            if let Some(n) = filaments {
                layout.filamentize_wide(um(3), n);
            }
            let par = PeecParasitics::extract(&layout, um(1000));
            let port = LoopPortSpec::from_layout(&par).unwrap();
            extract_loop_rl(&par, &port, &freqs).unwrap()
        };
        let solid = run(None);
        let fil = run(Some(5));
        let growth_solid = solid.r_ohm[1] / solid.r_ohm[0];
        let growth_fil = fil.r_ohm[1] / fil.r_ohm[0];
        assert!(
            growth_fil > growth_solid + 0.05,
            "filaments must show R(f) growth: {growth_fil} vs {growth_solid}"
        );
        // Filament L falls further with frequency than solid L.
        assert!(fil.l_h[1] < fil.l_h[0]);
    }

    /// Dense-vs-matrix-free differential at the loop level, on both
    /// operator flavors: an untied shielded bus is a uniform lattice
    /// (FFT block-Toeplitz operator), a tied one has perpendicular
    /// straps (dense-matvec fallback inside the Krylov loop).
    #[test]
    fn matrix_free_backend_matches_dense_oracle() {
        let tech = Technology::example_copper_6lm();
        let freqs = [1e8, 5e9, 4e10];
        let cfg = ParallelConfig::default();
        let extract = |par: &PeecParasitics, pspec: &LoopPortSpec, backend| {
            extract_loop_rl_resilient(
                par,
                pspec,
                &freqs,
                &cfg,
                backend,
                &ResilienceOptions::strict(),
            )
            .unwrap()
            .extraction
        };
        for tie in [false, true] {
            let spec = BusSpec {
                signals: 3,
                length_nm: um(800),
                spacing_nm: um(2),
                shields: ShieldPattern::Explicit(vec![1]),
                tie_shields: tie,
                ..BusSpec::default()
            };
            let bus = generate_bus(&tech, &spec);
            let par = PeecParasitics::extract(&bus, um(800));
            let pspec = LoopPortSpec::from_layout(&par).unwrap();
            let dense = extract(&par, &pspec, ExtractionBackend::Dense);
            let mf = extract(&par, &pspec, ExtractionBackend::MatrixFree);
            for i in 0..freqs.len() {
                let (rd, ld) = dense.at(i);
                let (rm, lm) = mf.at(i);
                assert!(
                    (rd - rm).abs() <= 1e-8 * rd.abs().max(1.0),
                    "tie={tie} f={}: R {rd} vs {rm}",
                    freqs[i]
                );
                assert!(
                    (ld - lm).abs() <= 1e-8 * ld.abs(),
                    "tie={tie} f={}: L {ld:e} vs {lm:e}",
                    freqs[i]
                );
            }
        }
    }

    #[test]
    fn unknown_port_is_an_error() {
        let par = pair(1000, 2);
        let spec = LoopPortSpec {
            driver_port: "missing".to_owned(),
            receiver_ports: vec![],
        };
        assert!(extract_loop_rl(&par, &spec, &[1e9]).is_err());
    }
}
