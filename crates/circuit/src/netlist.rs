//! Netlist construction: nodes, elements, coupled inductor systems.

use crate::elements::{Element, MosPolarity, Mosfet};
use crate::error::CircuitError;
use crate::solver::SolverBackend;
use crate::waveform::SourceWave;
use crate::Result;
use ind101_numeric::Matrix;
use std::collections::HashMap;
use std::sync::Arc;

/// A circuit node. `NodeId(0)` is ground.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// A set of inductive branches with a (possibly dense) symmetric
/// coupling matrix — the circuit-level image of a partial-inductance
/// matrix. Branch `k` carries current from `branches[k].0` to
/// `branches[k].1`; `m[(j,k)]` is the (mutual) inductance in henries.
#[derive(Clone, Debug)]
pub struct InductorSystem {
    /// Branch terminal pairs (current flows first → second).
    pub branches: Vec<(NodeId, NodeId)>,
    /// Symmetric inductance matrix, henries.
    pub m: Matrix<f64>,
}

impl InductorSystem {
    /// Number of branches.
    pub fn len(&self) -> usize {
        self.branches.len()
    }

    /// Whether the system has no branches.
    pub fn is_empty(&self) -> bool {
        self.branches.is_empty()
    }

    /// Number of nonzero off-diagonal couplings (upper triangle).
    pub fn mutual_count(&self) -> usize {
        let n = self.len();
        let mut c = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                if self.m[(i, j)] != 0.0 {
                    c += 1;
                }
            }
        }
        c
    }
}

/// Parameters for the CMOS inverter macro.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InverterParams {
    /// NMOS transconductance factor β, A/V².
    pub beta_n: f64,
    /// PMOS transconductance factor β, A/V².
    pub beta_p: f64,
    /// Threshold voltage magnitude, volts.
    pub vt: f64,
    /// Channel-length modulation, 1/V.
    pub lambda: f64,
}

/// Relative symmetry tolerance for a mutual-coupling matrix: the
/// symmetry defect must stay below this fraction of the largest entry.
const SYMMETRY_REL_TOL: f64 = 1e-9;

/// Default NMOS transconductance factor for the global-clock buffer,
/// amperes per volt squared.
const DEFAULT_BETA_N: f64 = 20e-3;
/// Default PMOS transconductance factor (weaker hole mobility), A/V².
const DEFAULT_BETA_P: f64 = 16e-3;

impl Default for InverterParams {
    /// A strong global-clock buffer in a 1.8 V technology.
    fn default() -> Self {
        Self {
            beta_n: DEFAULT_BETA_N,
            beta_p: DEFAULT_BETA_P,
            vt: 0.45,
            lambda: 0.05,
        }
    }
}

impl InverterParams {
    /// Returns the same inverter scaled by `k` (wider devices).
    pub fn scaled(self, k: f64) -> Self {
        Self {
            beta_n: self.beta_n * k,
            beta_p: self.beta_p * k,
            ..self
        }
    }
}

/// Element counts of a circuit — the "Num. of R / C / L, # mutuals"
/// columns of the paper's Table 1.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ElementCounts {
    /// Resistors.
    pub resistors: usize,
    /// Capacitors.
    pub capacitors: usize,
    /// Inductive branches (self inductances).
    pub inductors: usize,
    /// Nonzero mutual couplings.
    pub mutuals: usize,
    /// Independent sources.
    pub sources: usize,
    /// Transistors.
    pub transistors: usize,
    /// Nodes (excluding ground).
    pub nodes: usize,
}

/// A circuit under construction / analysis.
#[derive(Clone, Debug, Default)]
pub struct Circuit {
    /// Node names in id order; a named node's entry shares its one
    /// allocation with its `by_name` key.
    node_names: Vec<Arc<str>>,
    by_name: HashMap<Arc<str>, NodeId>,
    pub(crate) elements: Vec<Element>,
    pub(crate) inductors: Vec<InductorSystem>,
    solver_backend: SolverBackend,
}

impl Circuit {
    /// The ground node.
    pub const GND: NodeId = NodeId(0);

    /// Creates an empty circuit (ground pre-registered).
    pub fn new() -> Self {
        let ground: Arc<str> = Arc::from("0");
        Self {
            node_names: vec![Arc::clone(&ground)],
            by_name: HashMap::from([(ground, Self::GND)]),
            elements: Vec::new(),
            inductors: Vec::new(),
            solver_backend: SolverBackend::Auto,
        }
    }

    /// Selects the linear-solver family used by every analysis on this
    /// circuit (DC operating point, transient, AC sweep). The default is
    /// [`SolverBackend::Auto`], which picks by structure and honours the
    /// `IND101_SOLVER_BACKEND` environment variable.
    pub fn set_solver_backend(&mut self, backend: SolverBackend) {
        self.solver_backend = backend;
    }

    /// The configured solver backend (as set, before environment
    /// resolution).
    pub fn solver_backend(&self) -> SolverBackend {
        self.solver_backend
    }

    /// Backend after resolving `Auto` through the environment: what the
    /// analyses actually hand to the solver.
    pub(crate) fn effective_backend(&self) -> SolverBackend {
        self.solver_backend.resolve()
    }

    /// Returns the node with the given name, creating it if necessary.
    pub fn node(&mut self, name: impl AsRef<str>) -> NodeId {
        let name = name.as_ref();
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = NodeId(self.node_names.len());
        let name: Arc<str> = Arc::from(name);
        self.node_names.push(Arc::clone(&name));
        self.by_name.insert(name, id);
        id
    }

    /// Creates a fresh anonymous node.
    pub fn anon_node(&mut self) -> NodeId {
        use std::io::Write;
        let id = NodeId(self.node_names.len());
        // `_n{id}` is formatted on the stack, so the name's one
        // allocation is its `Arc`.
        let mut buf = [0u8; 24];
        let mut rest = &mut buf[..];
        let _ = write!(rest, "_n{}", id.0);
        let unused = rest.len();
        let len = buf.len() - unused;
        let name = std::str::from_utf8(&buf[..len]).unwrap_or_default();
        self.node_names.push(Arc::from(name));
        id
    }

    /// Looks up an existing node by name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// Name of a node.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.node_names[id.0]
    }

    /// Total number of nodes including ground.
    pub fn num_nodes(&self) -> usize {
        self.node_names.len()
    }

    fn check_node(&self, n: NodeId) -> Result<()> {
        if n.0 < self.node_names.len() {
            Ok(())
        } else {
            Err(CircuitError::UnknownNode { index: n.0 })
        }
    }

    /// Adds a resistor.
    ///
    /// # Errors
    ///
    /// Rejects non-positive or non-finite resistance and unknown nodes.
    pub fn try_resistor(&mut self, a: NodeId, b: NodeId, ohms: f64) -> Result<()> {
        self.check_node(a)?;
        self.check_node(b)?;
        if !(ohms > 0.0) || !ohms.is_finite() {
            return Err(CircuitError::InvalidElement {
                what: format!("resistor {ohms} ohms"),
            });
        }
        self.elements.push(Element::Resistor { a, b, ohms });
        Ok(())
    }

    /// Adds a resistor.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters; see [`Circuit::try_resistor`].
    // Netlist-construction convenience: panicking on a bad element
    // parameter at build time is intentional (the fallible form is
    // `try_resistor`); the unwrap lint is scoped to solver paths.
    #[allow(clippy::expect_used)]
    pub fn resistor(&mut self, a: NodeId, b: NodeId, ohms: f64) {
        // ind101: allow(panic-policy, documented build-time panic; try_resistor is the fallible API)
        self.try_resistor(a, b, ohms).expect("invalid resistor");
    }

    /// Adds a capacitor.
    ///
    /// # Errors
    ///
    /// Rejects non-positive or non-finite capacitance and unknown nodes.
    pub fn try_capacitor(&mut self, a: NodeId, b: NodeId, farads: f64) -> Result<()> {
        self.check_node(a)?;
        self.check_node(b)?;
        if !(farads > 0.0) || !farads.is_finite() {
            return Err(CircuitError::InvalidElement {
                what: format!("capacitor {farads} farads"),
            });
        }
        self.elements.push(Element::Capacitor { a, b, farads });
        Ok(())
    }

    /// Adds a capacitor.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters; see [`Circuit::try_capacitor`].
    // Same rationale as `resistor`: intentional build-time panic.
    #[allow(clippy::expect_used)]
    pub fn capacitor(&mut self, a: NodeId, b: NodeId, farads: f64) {
        // ind101: allow(panic-policy, documented build-time panic; try_capacitor is the fallible API)
        self.try_capacitor(a, b, farads).expect("invalid capacitor");
    }

    /// Adds an independent voltage source (`plus` − `minus` = wave).
    pub fn vsrc(&mut self, plus: NodeId, minus: NodeId, wave: SourceWave) {
        self.elements.push(Element::Vsrc {
            plus,
            minus,
            wave,
            ac_mag: 0.0,
        });
    }

    /// Adds a voltage source that also drives AC analysis with the given
    /// magnitude.
    pub fn vsrc_ac(&mut self, plus: NodeId, minus: NodeId, wave: SourceWave, ac_mag: f64) {
        self.elements.push(Element::Vsrc {
            plus,
            minus,
            wave,
            ac_mag,
        });
    }

    /// Adds an independent current source (current flows out of `from`,
    /// into `into` — i.e. it is injected into `into`).
    pub fn isrc(&mut self, from: NodeId, into: NodeId, wave: SourceWave) {
        self.elements.push(Element::Isrc {
            from,
            into,
            wave,
            ac_mag: 0.0,
        });
    }

    /// Adds a current source with an AC magnitude (for impedance probing).
    pub fn isrc_ac(&mut self, from: NodeId, into: NodeId, wave: SourceWave, ac_mag: f64) {
        self.elements.push(Element::Isrc {
            from,
            into,
            wave,
            ac_mag,
        });
    }

    /// Adds an uncoupled inductor as a one-branch system.
    ///
    /// # Panics
    ///
    /// Panics on non-positive inductance.
    pub fn inductor(&mut self, a: NodeId, b: NodeId, henries: f64) {
        assert!(henries > 0.0 && henries.is_finite(), "invalid inductance");
        let mut m = Matrix::zeros(1, 1);
        m[(0, 0)] = henries;
        self.inductors.push(InductorSystem {
            branches: vec![(a, b)],
            m,
        });
    }

    /// Fallible [`Circuit::inductor`] — the panic-free path for
    /// programmatically generated circuits (e.g. deck lowering).
    ///
    /// # Errors
    ///
    /// [`CircuitError::BadInductorSystem`] on a non-positive or
    /// non-finite inductance; [`CircuitError::UnknownNode`] on nodes
    /// this circuit never created.
    pub fn try_inductor(&mut self, a: NodeId, b: NodeId, henries: f64) -> Result<()> {
        self.check_node(a)?;
        self.check_node(b)?;
        if !(henries > 0.0 && henries.is_finite()) {
            return Err(CircuitError::BadInductorSystem {
                what: format!("self inductance {henries} is not positive and finite"),
            });
        }
        let mut m = Matrix::zeros(1, 1);
        m[(0, 0)] = henries;
        self.inductors.push(InductorSystem {
            branches: vec![(a, b)],
            m,
        });
        Ok(())
    }

    /// Adds a coupled inductor system.
    ///
    /// # Errors
    ///
    /// Rejects dimension mismatches, asymmetric matrices and
    /// non-positive self terms.
    pub fn add_inductor_system(&mut self, sys: InductorSystem) -> Result<()> {
        if sys.m.nrows() != sys.branches.len() || sys.m.ncols() != sys.branches.len() {
            return Err(CircuitError::BadInductorSystem {
                what: format!(
                    "matrix {}x{} vs {} branches",
                    sys.m.nrows(),
                    sys.m.ncols(),
                    sys.branches.len()
                ),
            });
        }
        if sys.m.symmetry_defect() > SYMMETRY_REL_TOL * sys.m.max_abs() {
            return Err(CircuitError::BadInductorSystem {
                what: "coupling matrix is not symmetric".to_owned(),
            });
        }
        for k in 0..sys.len() {
            if !(sys.m[(k, k)] > 0.0) {
                return Err(CircuitError::BadInductorSystem {
                    what: format!("self inductance {} is not positive", sys.m[(k, k)]),
                });
            }
            self.check_node(sys.branches[k].0)?;
            self.check_node(sys.branches[k].1)?;
        }
        self.inductors.push(sys);
        Ok(())
    }

    /// Adds a MOSFET.
    pub fn mosfet(&mut self, m: Mosfet) {
        self.elements.push(Element::Transistor(m));
    }

    /// Adds a CMOS inverter between supply rails; returns nothing — the
    /// output node is supplied by the caller.
    pub fn inverter(
        &mut self,
        input: NodeId,
        output: NodeId,
        vdd: NodeId,
        vss: NodeId,
        p: InverterParams,
    ) {
        self.mosfet(Mosfet {
            d: output,
            g: input,
            s: vss,
            polarity: MosPolarity::Nmos,
            beta: p.beta_n,
            vt: p.vt,
            lambda: p.lambda,
        });
        self.mosfet(Mosfet {
            d: output,
            g: input,
            s: vdd,
            polarity: MosPolarity::Pmos,
            beta: p.beta_p,
            vt: p.vt,
            lambda: p.lambda,
        });
    }

    /// Whether the circuit contains nonlinear devices.
    pub fn is_nonlinear(&self) -> bool {
        self.elements
            .iter()
            .any(|e| matches!(e, Element::Transistor(_)))
    }

    /// The transistors, in insertion order.
    pub(crate) fn mosfets(&self) -> Vec<Mosfet> {
        self.elements
            .iter()
            .filter_map(|e| match e {
                Element::Transistor(m) => Some(m.clone()),
                _ => None,
            })
            .collect()
    }

    /// All elements.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// All inductor systems.
    pub fn inductor_systems(&self) -> &[InductorSystem] {
        &self.inductors
    }

    /// Element counts (Table 1 reporting).
    pub fn counts(&self) -> ElementCounts {
        let mut c = ElementCounts {
            nodes: self.num_nodes().saturating_sub(1),
            ..ElementCounts::default()
        };
        for e in &self.elements {
            match e {
                Element::Resistor { .. } => c.resistors += 1,
                Element::Capacitor { .. } => c.capacitors += 1,
                Element::Vsrc { .. } | Element::Isrc { .. } => c.sources += 1,
                Element::Transistor(_) => c.transistors += 1,
            }
        }
        for s in &self.inductors {
            c.inductors += s.len();
            c.mutuals += s.mutual_count();
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_are_interned_by_name() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let a2 = c.node("a");
        assert_eq!(a, a2);
        assert_eq!(c.find_node("a"), Some(a));
        assert_eq!(c.node_name(a), "a");
        assert_ne!(c.node("b"), a);
        assert_eq!(c.num_nodes(), 3);
        assert_eq!(c.node_name(Circuit::GND), "0");
        assert_eq!(c.find_node("0"), Some(Circuit::GND));
    }

    #[test]
    fn anonymous_nodes_are_named_by_id_and_not_interned() {
        let mut c = Circuit::new();
        let m = c.anon_node();
        assert_eq!(c.node_name(m), "_n1");
        assert_eq!(c.find_node("_n1"), None);
        for _ in 0..11 {
            c.anon_node();
        }
        let last = c.anon_node();
        assert_eq!(c.node_name(last), "_n13");
    }

    #[test]
    fn invalid_elements_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        assert!(c.try_resistor(a, Circuit::GND, -1.0).is_err());
        assert!(c.try_resistor(a, Circuit::GND, f64::NAN).is_err());
        assert!(c.try_capacitor(a, Circuit::GND, 0.0).is_err());
        assert!(c.try_resistor(NodeId(99), a, 1.0).is_err());
    }

    #[test]
    fn inductor_system_validation() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        let mut m = Matrix::zeros(2, 2);
        m[(0, 0)] = 1e-9;
        m[(1, 1)] = 1e-9;
        m[(0, 1)] = 0.2e-9;
        m[(1, 0)] = 0.2e-9;
        let sys = InductorSystem {
            branches: vec![(a, b), (b, Circuit::GND)],
            m: m.clone(),
        };
        assert!(c.add_inductor_system(sys).is_ok());

        let mut bad = m.clone();
        bad[(0, 1)] = 0.5e-9; // asymmetric
        assert!(c
            .add_inductor_system(InductorSystem {
                branches: vec![(a, b), (b, Circuit::GND)],
                m: bad,
            })
            .is_err());

        let mut zero_self = m;
        zero_self[(0, 0)] = 0.0;
        assert!(c
            .add_inductor_system(InductorSystem {
                branches: vec![(a, b), (b, Circuit::GND)],
                m: zero_self,
            })
            .is_err());
    }

    #[test]
    fn counts_cover_all_element_kinds() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.resistor(a, b, 10.0);
        c.capacitor(b, Circuit::GND, 1e-12);
        c.vsrc(a, Circuit::GND, SourceWave::dc(1.0));
        c.inductor(a, b, 1e-9);
        c.inverter(a, b, a, Circuit::GND, InverterParams::default());
        let counts = c.counts();
        assert_eq!(counts.resistors, 1);
        assert_eq!(counts.capacitors, 1);
        assert_eq!(counts.inductors, 1);
        assert_eq!(counts.mutuals, 0);
        assert_eq!(counts.sources, 1);
        assert_eq!(counts.transistors, 2);
        assert_eq!(counts.nodes, 2);
        assert!(c.is_nonlinear());
    }

    #[test]
    fn mutual_count_of_system() {
        let mut m = Matrix::zeros(3, 3);
        for i in 0..3 {
            m[(i, i)] = 1e-9;
        }
        m[(0, 1)] = 1e-10;
        m[(1, 0)] = 1e-10;
        let sys = InductorSystem {
            branches: vec![
                (NodeId(0), NodeId(0)),
                (NodeId(0), NodeId(0)),
                (NodeId(0), NodeId(0)),
            ],
            m,
        };
        assert_eq!(sys.mutual_count(), 1);
        assert_eq!(sys.len(), 3);
    }
}
