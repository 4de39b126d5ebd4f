//! Deck → [`Circuit`] lowering.
//!
//! Interns node names (`0`/`gnd`/`GND` are the global ground), stamps
//! primitive elements, groups `K`-coupled inductors into
//! [`InductorSystem`]s via union-find (mutual term `M_ij =
//! k·√(L_i·L_j)`), and converts analysis cards into solver options.
//! All physical validation happens here with deck spans attached, so a
//! hostile deck can never reach a panicking `Circuit` constructor.

use crate::ast::{AcSweep, AnalysisCard, Deck, ElementKind, ElementStmt};
use crate::error::NetlistError;
use crate::flatten::{flatten, FlatDeck};
use crate::span::Span;
use ind101_circuit::{
    AcOptions, Circuit, InductorSystem, NodeId, SourceWave, TranOptions, MAX_AC_POINTS,
};
use ind101_numeric::Matrix;
use std::collections::HashMap;

/// A lowered deck: the circuit, its analysis plan, and the name → node
/// map (first-use order, ground excluded).
#[derive(Clone, Debug)]
pub struct Lowered {
    /// The stamped circuit.
    pub circuit: Circuit,
    /// Requested analyses, in deck order.
    pub analyses: Vec<AnalysisPlan>,
    /// Named nodes in intern order (ground `0` excluded).
    pub nodes: Vec<(String, NodeId)>,
}

/// One validated analysis request.
#[derive(Clone, Debug, PartialEq)]
pub enum AnalysisPlan {
    /// DC operating point.
    Op,
    /// AC sweep over the given frequency grid.
    Ac(AcOptions),
    /// Transient run.
    Tran(TranOptions),
}

/// Lowers a parsed deck (flattening first).
///
/// # Errors
///
/// Flattening errors pass through; value/physics violations surface as
/// [`NetlistError::BadValue`], [`NetlistError::BadCoupling`],
/// [`NetlistError::UnknownInductor`], or [`NetlistError::Lowering`],
/// each carrying the offending card's span.
pub fn lower(deck: &Deck<'_>) -> Result<Lowered, NetlistError> {
    lower_flat(&flatten(deck)?)
}

/// Lowers an already-flattened deck.
///
/// # Errors
///
/// See [`lower`].
pub fn lower_flat(flat: &FlatDeck<'_>) -> Result<Lowered, NetlistError> {
    let mut circuit = Circuit::new();
    let mut nodes: Vec<(String, NodeId)> = Vec::new();
    let intern = |circuit: &mut Circuit, nodes: &mut Vec<(String, NodeId)>, name: &str| {
        if name == "0" || name.eq_ignore_ascii_case("gnd") {
            return Circuit::GND;
        }
        let known = circuit.num_nodes();
        let id = circuit.node(name);
        if circuit.num_nodes() > known {
            nodes.push((name.to_owned(), id));
        }
        id
    };

    // Inductors are collected (not stamped) until couplings are known.
    let mut inds: Vec<Ind> = Vec::new();
    let mut ind_by_name: HashMap<&str, usize> = HashMap::new();
    let mut coups: Vec<Coup> = Vec::new();

    for e in &flat.elements {
        match &e.kind {
            ElementKind::Resistor { a, b, ohms } => {
                check_positive(*ohms, "resistance", e)?;
                let (a, b) = (
                    intern(&mut circuit, &mut nodes, a),
                    intern(&mut circuit, &mut nodes, b),
                );
                circuit
                    .try_resistor(a, b, *ohms)
                    .map_err(|err| lowering(e.span, &err))?;
            }
            ElementKind::Capacitor { a, b, farads } => {
                check_positive(*farads, "capacitance", e)?;
                let (a, b) = (
                    intern(&mut circuit, &mut nodes, a),
                    intern(&mut circuit, &mut nodes, b),
                );
                circuit
                    .try_capacitor(a, b, *farads)
                    .map_err(|err| lowering(e.span, &err))?;
            }
            ElementKind::Inductor { a, b, henries } => {
                check_positive(*henries, "inductance", e)?;
                if !henries.is_finite() {
                    return Err(bad_value(e.span, "inductance must be finite"));
                }
                let (a, b) = (
                    intern(&mut circuit, &mut nodes, a),
                    intern(&mut circuit, &mut nodes, b),
                );
                let idx = inds.len();
                inds.push(Ind {
                    span: e.span,
                    a,
                    b,
                    henries: *henries,
                });
                ind_by_name.insert(&e.name, idx);
            }
            ElementKind::Coupling { l1, l2, k } => {
                if !k.is_finite() || k.abs() >= 1.0 {
                    return Err(NetlistError::BadCoupling { span: e.span, k: *k });
                }
                let resolve = |lname: &str| -> Result<usize, NetlistError> {
                    ind_by_name
                        .get(lname)
                        .copied()
                        .ok_or_else(|| NetlistError::UnknownInductor {
                            span: e.span,
                            coupling: e.name.to_string(),
                            inductor: lname.to_owned(),
                        })
                };
                let (i, j) = (resolve(l1)?, resolve(l2)?);
                if i == j {
                    return Err(bad_value(e.span, "coupling an inductor to itself"));
                }
                coups.push(Coup {
                    span: e.span,
                    i,
                    j,
                    k: *k,
                });
            }
            ElementKind::Vsrc {
                plus,
                minus,
                source,
            } => {
                let wave = lower_wave(&source.wave, e)?;
                let ac = check_ac_mag(source.ac_mag, e)?;
                let (p, m) = (
                    intern(&mut circuit, &mut nodes, plus),
                    intern(&mut circuit, &mut nodes, minus),
                );
                circuit.vsrc_ac(p, m, wave, ac);
            }
            ElementKind::Isrc {
                plus,
                minus,
                source,
            } => {
                let wave = lower_wave(&source.wave, e)?;
                let ac = check_ac_mag(source.ac_mag, e)?;
                let (p, m) = (
                    intern(&mut circuit, &mut nodes, plus),
                    intern(&mut circuit, &mut nodes, minus),
                );
                // SPICE: positive current flows out of `plus`, through
                // the source, into `minus`.
                circuit.isrc_ac(p, m, wave, ac);
            }
        }
    }

    stamp_inductors(&mut circuit, &inds, &coups)?;

    let mut analyses = Vec::with_capacity(flat.analyses.len());
    for card in &flat.analyses {
        analyses.push(lower_analysis(card)?);
    }

    Ok(Lowered {
        circuit,
        analyses,
        nodes,
    })
}

/// A collected (not yet stamped) inductor.
struct Ind {
    span: Span,
    a: NodeId,
    b: NodeId,
    henries: f64,
}

/// A collected coupling between inductor indices.
struct Coup {
    span: Span,
    i: usize,
    j: usize,
    k: f64,
}

/// One coupled group: its inductors in deck order and its couplings in
/// card order.
#[derive(Default)]
struct Group {
    members: Vec<usize>,
    coups: Vec<usize>,
}

/// Groups inductors by coupling (union-find) and stamps one
/// [`InductorSystem`] per group, in the order of each group's first
/// inductor. Each `K` card is filed under its group once, so a group
/// reads only its own cards, in card order: the first conflicting
/// pair is the one a scan of every card would meet first.
fn stamp_inductors(
    circuit: &mut Circuit,
    inds: &[Ind],
    coups: &[Coup],
) -> Result<(), NetlistError> {
    // Union-find over inductor indices.
    let mut parent: Vec<usize> = (0..inds.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for c in coups {
        let (ri, rj) = (find(&mut parent, c.i), find(&mut parent, c.j));
        if ri != rj {
            parent[ri] = rj;
        }
    }
    // Group of each root, and each inductor's position in its group.
    let mut group_of = vec![usize::MAX; inds.len()];
    let mut pos = vec![0usize; inds.len()];
    let mut groups: Vec<Group> = Vec::new();
    for i in 0..inds.len() {
        let r = find(&mut parent, i);
        if group_of[r] == usize::MAX {
            group_of[r] = groups.len();
            groups.push(Group::default());
        }
        let g = &mut groups[group_of[r]];
        pos[i] = g.members.len();
        g.members.push(i);
    }
    for (k, c) in coups.iter().enumerate() {
        groups[group_of[find(&mut parent, c.i)]].coups.push(k);
    }
    for g in &groups {
        let members = &g.members;
        let n = members.len();
        let mut m = Matrix::zeros(n, n);
        for (p, &i) in members.iter().enumerate() {
            m[(p, p)] = inds[i].henries;
        }
        let mut sys_span = inds[members[0]].span;
        for c in g.coups.iter().map(|&k| &coups[k]) {
            let (pi, pj) = (pos[c.i], pos[c.j]);
            let mij = c.k * (inds[c.i].henries * inds[c.j].henries).sqrt();
            if m[(pi, pj)] != 0.0 && m[(pi, pj)] != mij {
                return Err(bad_value(
                    c.span,
                    "conflicting K cards for the same inductor pair",
                ));
            }
            m[(pi, pj)] = mij;
            m[(pj, pi)] = mij;
            sys_span = c.span;
        }
        let branches: Vec<(NodeId, NodeId)> = members.iter().map(|&i| (inds[i].a, inds[i].b)).collect();
        if n == 1 {
            circuit
                .try_inductor(branches[0].0, branches[0].1, inds[members[0]].henries)
                .map_err(|err| lowering(inds[members[0]].span, &err))?;
        } else {
            circuit
                .add_inductor_system(InductorSystem { branches, m })
                .map_err(|err| lowering(sys_span, &err))?;
        }
    }
    Ok(())
}

fn lowering(span: Span, err: &ind101_circuit::CircuitError) -> NetlistError {
    NetlistError::Lowering {
        span,
        what: err.to_string(),
    }
}

fn bad_value(span: Span, what: &str) -> NetlistError {
    NetlistError::BadValue {
        span,
        what: what.to_owned(),
    }
}

fn check_positive(v: f64, what: &str, e: &ElementStmt<'_>) -> Result<(), NetlistError> {
    if v > 0.0 && !v.is_nan() {
        Ok(())
    } else {
        Err(bad_value(e.span, &format!("{what} must be positive")))
    }
}

fn check_ac_mag(ac: Option<f64>, e: &ElementStmt<'_>) -> Result<f64, NetlistError> {
    let m = ac.unwrap_or(0.0);
    if m.is_finite() {
        Ok(m)
    } else {
        Err(bad_value(e.span, "AC magnitude must be finite"))
    }
}

fn lower_wave(
    wave: &crate::ast::WaveSpec,
    e: &ElementStmt<'_>,
) -> Result<SourceWave, NetlistError> {
    use crate::ast::WaveSpec;
    match wave {
        WaveSpec::Dc(v) => {
            if !v.is_finite() {
                return Err(bad_value(e.span, "DC value must be finite"));
            }
            Ok(SourceWave::Dc(*v))
        }
        WaveSpec::Pulse {
            v0,
            v1,
            delay,
            rise,
            fall,
            width,
            period,
        } => {
            if !v0.is_finite() || !v1.is_finite() {
                return Err(bad_value(e.span, "PULSE levels must be finite"));
            }
            for (t, name) in [
                (*delay, "delay"),
                (*rise, "rise"),
                (*fall, "fall"),
                (*width, "width"),
                (*period, "period"),
            ] {
                if t.is_nan() || t < 0.0 {
                    return Err(bad_value(e.span, &format!("PULSE {name} must be >= 0")));
                }
            }
            if !delay.is_finite() || !rise.is_finite() || !fall.is_finite() {
                return Err(bad_value(e.span, "PULSE delay/rise/fall must be finite"));
            }
            Ok(SourceWave::Pulse {
                v0: *v0,
                v1: *v1,
                delay: *delay,
                rise: *rise,
                fall: *fall,
                width: *width,
                period: *period,
            })
        }
        WaveSpec::Pwl(pts) => {
            let mut prev = f64::NEG_INFINITY;
            for &(t, v) in pts {
                if !t.is_finite() || !v.is_finite() {
                    return Err(bad_value(e.span, "PWL knots must be finite"));
                }
                if t < prev {
                    return Err(bad_value(e.span, "PWL times must be ascending"));
                }
                prev = t;
            }
            Ok(SourceWave::Pwl(pts.clone()))
        }
    }
}

fn lower_analysis(card: &AnalysisCard) -> Result<AnalysisPlan, NetlistError> {
    match card {
        AnalysisCard::Op { .. } => Ok(AnalysisPlan::Op),
        AnalysisCard::Ac {
            span,
            sweep,
            points,
            fstart,
            fstop,
        } => {
            if !(fstart.is_finite() && fstop.is_finite() && *fstart > 0.0 && fstop >= fstart) {
                return Err(bad_value(
                    *span,
                    ".AC needs 0 < fstart <= fstop (finite)",
                ));
            }
            // The frequency count, in f64 and before anything is
            // allocated: `log_sweep` takes ⌈decades · n⌉ + 1 points and
            // panics past the same bound, so a deck gets `BadValue`.
            let count = match sweep {
                AcSweep::Dec => ((fstop / fstart).log10() * *points as f64).ceil() + 1.0,
                AcSweep::Lin => *points as f64,
            };
            if count > MAX_AC_POINTS as f64 {
                return Err(bad_value(
                    *span,
                    &format!(".AC asks for {count} frequencies, more than {MAX_AC_POINTS}"),
                ));
            }
            let opts = match sweep {
                AcSweep::Dec => AcOptions::log_sweep(*fstart, *fstop, *points),
                AcSweep::Lin => {
                    let n = *points;
                    let freqs = if n == 1 {
                        vec![*fstart]
                    } else {
                        (0..n)
                            .map(|i| {
                                fstart + (fstop - fstart) * (i as f64) / ((n - 1) as f64)
                            })
                            .collect()
                    };
                    AcOptions { freqs_hz: freqs }
                }
            };
            Ok(AnalysisPlan::Ac(opts))
        }
        AnalysisCard::Tran { span, tstep, tstop } => {
            if !(tstep.is_finite() && tstop.is_finite() && *tstep > 0.0 && *tstop > *tstep) {
                return Err(bad_value(*span, ".TRAN needs 0 < tstep < tstop (finite)"));
            }
            Ok(AnalysisPlan::Tran(TranOptions::new(*tstep, *tstop)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_deck;

    fn low(src: &str) -> Result<Lowered, NetlistError> {
        lower(&parse_deck(src).unwrap())
    }

    #[test]
    fn lowers_rc_and_solves_dc() {
        let l = low(
            "divider\n\
             V1 in 0 DC 2\n\
             R1 in mid 1k\n\
             R2 mid 0 1k\n\
             .OP\n",
        )
        .unwrap();
        assert_eq!(l.analyses, vec![AnalysisPlan::Op]);
        let op = l.circuit.dc_op().unwrap();
        let mid = l.circuit.find_node("mid").unwrap();
        assert!((op.voltage(mid) - 1.0).abs() < 1e-8); // gmin leak bounds the error
    }

    #[test]
    fn couplings_group_into_systems() {
        let l = low(
            "coupled\n\
             L1 a 0 1n\n\
             L2 b 0 4n\n\
             L3 c 0 2n\n\
             K12 L1 L2 0.5\n\
             R1 a 0 1\n R2 b 0 1\n R3 c 0 1\n\
             V1 a 0 DC 1\n",
        )
        .unwrap();
        let systems = l.circuit.inductor_systems();
        assert_eq!(systems.len(), 2);
        // Coupled pair first (L1 appears first), singleton L3 second.
        assert_eq!(systems[0].len(), 2);
        let m = &systems[0].m;
        let expected = 0.5 * (1e-9f64 * 4e-9).sqrt();
        assert!((m[(0, 1)] - expected).abs() < 1e-24);
        assert_eq!(systems[1].len(), 1);
    }

    /// Groups are checked in the order of their first inductor, and a
    /// group's cards in card order: the first group's conflict (K4)
    /// wins over the second group's, which comes earlier in the deck.
    #[test]
    fn first_conflicting_k_card_is_reported() {
        let e = low(
            "t\nL1 a 0 1n\nL2 b 0 1n\nL3 c 0 1n\nL4 d 0 1n\n\
             K1 L3 L4 0.5\nK2 L3 L4 0.4\nK3 L1 L2 0.5\nK4 L1 L2 0.3\nK5 L2 L1 0.2\n",
        )
        .unwrap_err();
        assert!(matches!(e, NetlistError::BadValue { .. }), "{e}");
        assert_eq!(e.span(), Span::new(9, 1, 2));
    }

    #[test]
    fn ground_aliases_merge() {
        let l = low("g\nR1 a 0 1\nR2 a gnd 1\nR3 a GND 1\nV1 a 0 DC 1\n").unwrap();
        // Only node `a` is non-ground.
        assert_eq!(l.nodes.len(), 1);
        assert_eq!(l.circuit.num_nodes(), 2);
    }

    #[test]
    fn physical_rejections_are_typed() {
        let cases = [
            "t\nR1 a 0 -5\n",
            "t\nC1 a 0 0\n",
            "t\nL1 a 0 -1n\n",
            "t\nL1 a 0 1n\nL2 b 0 1n\nK1 L1 L2 1.5\n",
            "t\nL1 a 0 1n\nK1 L1 L2 0.5\n",
            "t\nL1 a 0 1n\nK1 L1 L1 0.5\n",
            "t\nV1 a 0 PWL(2n 1 1n 0)\n",
            "t\n.AC DEC 3 0 1e9\n",
            "t\n.TRAN 1n 0.5n\n",
            "t\nV1 a 0 PULSE(0 1 -1n 1n)\n",
        ];
        for src in cases {
            let e = low(src).unwrap_err();
            assert!(e.span().is_valid(), "{src:?}: {e}");
        }
    }

    #[test]
    fn equal_ac_endpoints_are_one_frequency() {
        let l = low("t\nV1 in 0 DC 1 AC 1\nR1 in 0 1k\n.AC DEC 3 1e9 1e9\n").unwrap();
        let one = AcOptions {
            freqs_hz: vec![1e9],
        };
        assert_eq!(l.analyses, vec![AnalysisPlan::Ac(one.clone())]);
        assert_eq!(l.circuit.ac_sweep(&one).unwrap().freqs_hz, one.freqs_hz);
    }

    /// Counts past the cap are refused from the card before any grid is
    /// built (these would be 10¹⁰ + 1 and 2²⁰ + 1 frequencies).
    #[test]
    fn over_cap_ac_counts_are_typed() {
        for (card, line) in [
            (".AC DEC 1000000000 1 1e10", 3),
            (".AC LIN 1048577 1 10", 3),
            (".AC DEC 1 1e-300 1e300", 3),
        ] {
            let src = format!("t\nR1 a 0 1\n{card}\n");
            let e = low(&src).unwrap_err();
            assert!(matches!(e, NetlistError::BadValue { .. }), "{card}: {e}");
            assert_eq!(e.span(), Span::new(line, 1, 3), "{card}");
        }
        // Just under the cap is allowed: 20 decades at 52 428 points
        // each, plus one.
        let l = low("t\nR1 a 0 1\n.AC DEC 52428 1 1e20\n").unwrap();
        let AnalysisPlan::Ac(opts) = &l.analyses[0] else {
            panic!("expected AC plan");
        };
        assert_eq!(opts.freqs_hz.len(), 1_048_561);
    }

    #[test]
    fn lin_sweep_grid() {
        let l = low("t\nR1 a 0 1\nV1 a 0 DC 1 AC 1\n.AC LIN 3 10 30\n").unwrap();
        let AnalysisPlan::Ac(opts) = &l.analyses[0] else {
            panic!("expected AC plan");
        };
        assert_eq!(opts.freqs_hz, vec![10.0, 20.0, 30.0]);
    }
}
