//! Circuit → deck export.
//!
//! The inverse of [`crate::lower()`]: renders a linear
//! [`ind101_circuit::Circuit`] as a deck whose re-lowered form
//! reproduces the original analyses to solver precision. Node names
//! are taken from the circuit verbatim; uncoupled element values
//! survive bit-exactly (shortest-round-trip formatting, see
//! [`crate::value`]); mutual inductances go through the `K`
//! coefficient `k = M_ij/√(M_ii·M_jj)` and back, which is exact to a
//! few ulps — inside the differential suite's 1e-10 budget.

use crate::ast::{AnalysisCard, Deck, ElementKind, ElementStmt, SourceSpec, Stmt, WaveSpec};
use crate::print::print_deck;
use crate::span::Span;
use ind101_circuit::{Circuit, Element, SourceWave};
use std::borrow::Cow;
use std::fmt;

/// Why a circuit cannot be rendered as a deck.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ExportError {
    /// The circuit contains an element outside the deck subset
    /// (MOSFETs) or an inductor system whose implied coupling
    /// coefficient falls outside `(-1, 1)`.
    Unsupported {
        /// What could not be exported.
        what: String,
    },
}

impl fmt::Display for ExportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Unsupported { what } => write!(f, "cannot export circuit as deck: {what}"),
        }
    }
}

impl std::error::Error for ExportError {}

/// Builds the deck AST for a linear circuit, appending the given
/// analysis cards. The deck owns every string.
///
/// # Errors
///
/// [`ExportError::Unsupported`] on nonlinear devices or non-physical
/// inductor systems.
pub fn deck_from_circuit(
    c: &Circuit,
    title: &str,
    analyses: &[AnalysisCard],
) -> Result<Deck<'static>, ExportError> {
    let mut stmts: Vec<Stmt<'static>> = Vec::new();
    let mut counts = [0usize; 4]; // R, C, V, I
    let node = |id: ind101_circuit::NodeId| Cow::Owned(c.node_name(id).to_owned());
    for e in c.elements() {
        let stmt = match e {
            Element::Resistor { a, b, ohms } => {
                counts[0] += 1;
                element(format!("R{}", counts[0]), ElementKind::Resistor {
                    a: node(*a),
                    b: node(*b),
                    ohms: *ohms,
                })
            }
            Element::Capacitor { a, b, farads } => {
                counts[1] += 1;
                element(format!("C{}", counts[1]), ElementKind::Capacitor {
                    a: node(*a),
                    b: node(*b),
                    farads: *farads,
                })
            }
            Element::Vsrc {
                plus,
                minus,
                wave,
                ac_mag,
            } => {
                counts[2] += 1;
                element(format!("V{}", counts[2]), ElementKind::Vsrc {
                    plus: node(*plus),
                    minus: node(*minus),
                    source: export_source(wave, *ac_mag),
                })
            }
            Element::Isrc {
                from,
                into,
                wave,
                ac_mag,
            } => {
                counts[3] += 1;
                element(format!("I{}", counts[3]), ElementKind::Isrc {
                    plus: node(*from),
                    minus: node(*into),
                    source: export_source(wave, *ac_mag),
                })
            }
            Element::Transistor(_) => {
                return Err(ExportError::Unsupported {
                    what: "MOSFETs are outside the deck subset".to_owned(),
                })
            }
        };
        stmts.push(stmt);
    }

    for (s, sys) in c.inductor_systems().iter().enumerate() {
        let n = sys.len();
        for (k, &(a, b)) in sys.branches.iter().enumerate() {
            stmts.push(element(
                format!("LS{s}_{k}"),
                ElementKind::Inductor {
                    a: node(a),
                    b: node(b),
                    henries: sys.m[(k, k)],
                },
            ));
        }
        for i in 0..n {
            for j in (i + 1)..n {
                let mij = sys.m[(i, j)];
                if mij == 0.0 {
                    continue;
                }
                let k = mij / (sys.m[(i, i)] * sys.m[(j, j)]).sqrt();
                if !(k.is_finite() && k.abs() < 1.0) {
                    return Err(ExportError::Unsupported {
                        what: format!(
                            "inductor system {s}: implied coupling k({i},{j}) = {k} outside (-1, 1)"
                        ),
                    });
                }
                stmts.push(element(
                    format!("KS{s}_{i}_{j}"),
                    ElementKind::Coupling {
                        l1: Cow::Owned(format!("LS{s}_{i}")),
                        l2: Cow::Owned(format!("LS{s}_{j}")),
                        k,
                    },
                ));
            }
        }
    }

    stmts.extend(analyses.iter().cloned().map(Stmt::Analysis));
    Ok(Deck {
        title: Cow::Owned(title.to_owned()),
        stmts,
    })
}

/// Renders a linear circuit directly to deck text.
///
/// # Errors
///
/// See [`deck_from_circuit`].
pub fn export_deck(
    c: &Circuit,
    title: &str,
    analyses: &[AnalysisCard],
) -> Result<String, ExportError> {
    Ok(print_deck(&deck_from_circuit(c, title, analyses)?))
}

fn element(name: String, kind: ElementKind<'static>) -> Stmt<'static> {
    Stmt::Element(ElementStmt {
        name: Cow::Owned(name),
        span: Span::default(),
        kind,
    })
}

fn export_source(wave: &SourceWave, ac_mag: f64) -> SourceSpec {
    let wave = match wave {
        SourceWave::Dc(v) => WaveSpec::Dc(*v),
        SourceWave::Pulse {
            v0,
            v1,
            delay,
            rise,
            fall,
            width,
            period,
        } => WaveSpec::Pulse {
            v0: *v0,
            v1: *v1,
            delay: *delay,
            rise: *rise,
            fall: *fall,
            width: *width,
            period: *period,
        },
        SourceWave::Pwl(pts) => WaveSpec::Pwl(pts.clone()),
    };
    SourceSpec {
        wave,
        ac_mag: if ac_mag == 0.0 { None } else { Some(ac_mag) },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::parser::parse_deck;
    use ind101_circuit::{InductorSystem, SourceWave};
    use ind101_numeric::Matrix;

    /// Round-trips a hand-built coupled circuit through deck text and
    /// compares DC operating points node-by-node.
    #[test]
    fn export_lower_round_trip() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let mid = c.node("mid");
        let b = c.node("b");
        c.vsrc_ac(a, Circuit::GND, SourceWave::dc(1.0), 1.0);
        c.resistor(a, mid, 50.0);
        c.capacitor(mid, Circuit::GND, 1e-12);
        c.resistor(b, Circuit::GND, 75.0);
        let mut m = Matrix::zeros(2, 2);
        m[(0, 0)] = 1e-9;
        m[(1, 1)] = 4e-9;
        m[(0, 1)] = 0.6 * 2e-9;
        m[(1, 0)] = m[(0, 1)];
        c.add_inductor_system(InductorSystem {
            branches: vec![(mid, b), (b, Circuit::GND)],
            m,
        })
        .unwrap();

        let text = export_deck(&c, "round trip", &[]).unwrap();
        let lowered = lower(&parse_deck(&text).unwrap()).unwrap();
        let op1 = c.dc_op().unwrap();
        let op2 = lowered.circuit.dc_op().unwrap();
        for name in ["a", "mid", "b"] {
            let n1 = c.find_node(name).unwrap();
            let n2 = lowered.circuit.find_node(name).unwrap();
            assert!(
                (op1.voltage(n1) - op2.voltage(n2)).abs() < 1e-12,
                "{name}: {} vs {}",
                op1.voltage(n1),
                op2.voltage(n2)
            );
        }
        // The coupled system survives as one 2-branch system.
        assert_eq!(lowered.circuit.inductor_systems().len(), 1);
        assert_eq!(lowered.circuit.inductor_systems()[0].len(), 2);
    }

    #[test]
    fn transistors_are_unsupported() {
        let mut c = Circuit::new();
        let n = c.node("n");
        let out = c.node("out");
        let vdd = c.node("vdd");
        c.inverter(n, out, vdd, Circuit::GND, ind101_circuit::InverterParams::default());
        let err = export_deck(&c, "bad", &[]).unwrap_err();
        assert!(matches!(err, ExportError::Unsupported { .. }));
    }
}
