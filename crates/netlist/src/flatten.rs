//! Subcircuit flattening.
//!
//! Expands every `X` instance into its subcircuit body, recursively,
//! producing one flat element list. Hierarchical names follow the
//! SPICE convention: instance `X1` of a subckt containing `R2` and
//! internal node `mid` contributes element `X1.R2` over node
//! `X1.mid`; ports are substituted with the instance's outer nodes
//! and the global ground `0` is never scoped. `K` cards inside a
//! subcircuit couple that instance's own inductors (their references
//! are prefixed the same way as inductor names).
//!
//! The flat deck borrows from the deck it flattens: a top-level
//! element is copied with every string borrowed (only a `PWL` knot
//! list is cloned), and a string is built only for a scoped name.

use crate::ast::{AnalysisCard, Deck, ElementKind, ElementStmt, InstanceStmt, Stmt, SubcktDef};
use crate::error::NetlistError;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

/// Expansion depth bound: cycles are caught by the active stack, this
/// bounds pathological non-cyclic towers from fuzzed decks.
const MAX_DEPTH: usize = 64;

/// A flattened deck: primitive elements only, plus the analysis cards.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FlatDeck<'src> {
    /// Title of the source deck.
    pub title: Cow<'src, str>,
    /// Every primitive element, hierarchy expanded, in source order.
    pub elements: Vec<ElementStmt<'src>>,
    /// Analysis cards, in source order.
    pub analyses: Vec<AnalysisCard>,
}

impl FlatDeck<'_> {
    /// Distinct node names referenced by the elements (ground `0`
    /// included when referenced), in first-use order.
    pub fn node_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        let mut set: HashSet<&str> = HashSet::new();
        for e in &self.elements {
            for n in element_nodes(&e.kind) {
                if set.insert(n) {
                    names.push(n);
                }
            }
        }
        names
    }
}

/// The node names an element references (couplings reference none).
pub fn element_nodes<'a>(kind: &'a ElementKind<'_>) -> Vec<&'a str> {
    match kind {
        ElementKind::Resistor { a, b, .. }
        | ElementKind::Capacitor { a, b, .. }
        | ElementKind::Inductor { a, b, .. } => vec![a, b],
        ElementKind::Vsrc { plus, minus, .. } | ElementKind::Isrc { plus, minus, .. } => {
            vec![plus, minus]
        }
        ElementKind::Coupling { .. } => Vec::new(),
    }
}

/// `kind` with its node names mapped through `node` and its coupled
/// inductor names through `inductor`.
fn map_names<'a, 'b>(
    kind: &'a ElementKind<'_>,
    node: impl Fn(&'a str) -> Cow<'b, str>,
    inductor: impl Fn(&'a str) -> Cow<'b, str>,
) -> ElementKind<'b> {
    match kind {
        ElementKind::Resistor { a, b, ohms } => ElementKind::Resistor {
            a: node(a),
            b: node(b),
            ohms: *ohms,
        },
        ElementKind::Capacitor { a, b, farads } => ElementKind::Capacitor {
            a: node(a),
            b: node(b),
            farads: *farads,
        },
        ElementKind::Inductor { a, b, henries } => ElementKind::Inductor {
            a: node(a),
            b: node(b),
            henries: *henries,
        },
        ElementKind::Coupling { l1, l2, k } => ElementKind::Coupling {
            l1: inductor(l1),
            l2: inductor(l2),
            k: *k,
        },
        ElementKind::Vsrc {
            plus,
            minus,
            source,
        } => ElementKind::Vsrc {
            plus: node(plus),
            minus: node(minus),
            source: source.clone(),
        },
        ElementKind::Isrc {
            plus,
            minus,
            source,
        } => ElementKind::Isrc {
            plus: node(plus),
            minus: node(minus),
            source: source.clone(),
        },
    }
}

/// Flattens a parsed deck. The result borrows every string it can from
/// `deck`.
///
/// # Errors
///
/// [`NetlistError::UnknownSubckt`], [`NetlistError::PortArity`],
/// [`NetlistError::RecursiveSubckt`], or
/// [`NetlistError::DuplicateElement`] (two elements resolving to the
/// same flat name).
pub fn flatten<'d>(deck: &'d Deck<'_>) -> Result<FlatDeck<'d>, NetlistError> {
    let mut defs: HashMap<&'d str, &'d SubcktDef<'d>> = HashMap::new();
    for s in &deck.stmts {
        if let Stmt::Subckt(d) = s {
            defs.insert(&d.name, d);
        }
    }
    let mut flat = FlatDeck {
        title: Cow::Borrowed(&deck.title),
        elements: Vec::with_capacity(deck.stmts.len()),
        analyses: Vec::new(),
    };
    let mut stack: Vec<&str> = Vec::new();
    for s in &deck.stmts {
        match s {
            Stmt::Element(e) => flat.elements.push(ElementStmt {
                name: Cow::Borrowed(&e.name),
                span: e.span,
                kind: map_names(&e.kind, Cow::Borrowed, Cow::Borrowed),
            }),
            Stmt::Instance(x) => expand(x, &defs, &mut stack, &mut flat)?,
            Stmt::Subckt(_) => {}
            Stmt::Analysis(a) => flat.analyses.push(a.clone()),
        }
    }
    check_unique_names(&flat)?;
    Ok(flat)
}

fn check_unique_names(flat: &FlatDeck<'_>) -> Result<(), NetlistError> {
    let mut seen: HashSet<&str> = HashSet::with_capacity(flat.elements.len());
    for e in &flat.elements {
        if !seen.insert(&e.name) {
            return Err(NetlistError::DuplicateElement {
                span: e.span,
                name: e.name.to_string(),
            });
        }
    }
    Ok(())
}

/// Scopes a node name: ports map to outer nodes, ground stays global,
/// everything else gets the instance path prefix.
fn scope_node<'d>(
    name: &'d str,
    prefix: &str,
    ports: &HashMap<&str, &Cow<'d, str>>,
) -> Cow<'d, str> {
    if let Some(outer) = ports.get(name) {
        return (*outer).clone();
    }
    if name == "0" || name.eq_ignore_ascii_case("gnd") {
        return Cow::Borrowed(name);
    }
    Cow::Owned(format!("{prefix}{name}"))
}

/// Expands one instance whose `name` is the full hierarchical path and
/// whose `nodes` are already resolved to global names.
fn expand<'d>(
    x: &InstanceStmt<'d>,
    defs: &HashMap<&'d str, &'d SubcktDef<'d>>,
    stack: &mut Vec<&'d str>,
    flat: &mut FlatDeck<'d>,
) -> Result<(), NetlistError> {
    let Some(&def) = defs.get(&*x.subckt) else {
        return Err(NetlistError::UnknownSubckt {
            span: x.span,
            name: x.subckt.to_string(),
        });
    };
    if def.ports.len() != x.nodes.len() {
        return Err(NetlistError::PortArity {
            span: x.span,
            name: def.name.to_string(),
            expected: def.ports.len(),
            got: x.nodes.len(),
        });
    }
    if stack.len() >= MAX_DEPTH || stack.contains(&&*def.name) {
        return Err(NetlistError::RecursiveSubckt {
            span: x.span,
            name: def.name.to_string(),
        });
    }
    let ports: HashMap<&str, &Cow<'d, str>> =
        def.ports.iter().map(|p| &**p).zip(&x.nodes).collect();
    let prefix = format!("{}.", x.name);
    stack.push(&def.name);
    for s in &def.body {
        match s {
            Stmt::Element(e) => flat.elements.push(ElementStmt {
                name: Cow::Owned(format!("{prefix}{}", e.name)),
                span: e.span,
                kind: map_names(
                    &e.kind,
                    |n| scope_node(n, &prefix, &ports),
                    |l| Cow::Owned(format!("{prefix}{l}")),
                ),
            }),
            Stmt::Instance(inner) => {
                // Resolve the inner instance's nodes in this scope and
                // extend the hierarchical path before recursing.
                let scoped = InstanceStmt {
                    name: Cow::Owned(format!("{prefix}{}", inner.name)),
                    span: inner.span,
                    nodes: inner
                        .nodes
                        .iter()
                        .map(|n| scope_node(n, &prefix, &ports))
                        .collect(),
                    subckt: Cow::Borrowed(&inner.subckt),
                };
                expand(&scoped, defs, stack, flat)?;
            }
            // Parser guarantees neither appears in a body.
            Stmt::Subckt(_) | Stmt::Analysis(_) => {}
        }
    }
    stack.pop();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_deck;

    #[test]
    fn expands_instances_with_scoped_names() {
        let deck = parse_deck(
            "t\n\
             .SUBCKT seg a b\n\
             R1 a mid 10\n\
             L1 mid b 1n\n\
             .ENDS\n\
             X1 in m seg\n\
             X2 m 0 seg\n\
             R9 in 0 1k\n",
        )
        .unwrap();
        let flat = flatten(&deck).unwrap();
        let names: Vec<&str> = flat.elements.iter().map(|e| &*e.name).collect();
        assert_eq!(names, vec!["X1.R1", "X1.L1", "X2.R1", "X2.L1", "R9"]);
        let nodes = flat.node_names();
        assert_eq!(nodes, vec!["in", "X1.mid", "m", "X2.mid", "0"]);
    }

    #[test]
    fn nested_instances_and_ground_stay_global() {
        let deck = parse_deck(
            "t\n\
             .SUBCKT leaf p\n\
             C1 p 0 1p\n\
             C2 p gnd 1p\n\
             .ENDS\n\
             .SUBCKT pair q\n\
             X1 q LEAF\n\
             X2 inner leaf\n\
             .ENDS\n\
             X0 top pair\n",
        )
        .unwrap();
        let flat = flatten(&deck).unwrap();
        let names: Vec<&str> = flat.elements.iter().map(|e| &*e.name).collect();
        assert_eq!(
            names,
            vec!["X0.X1.C1", "X0.X1.C2", "X0.X2.C1", "X0.X2.C2"]
        );
        assert!(flat.node_names().contains(&"X0.inner"));
        assert!(flat.node_names().contains(&"0"));
        assert!(flat.node_names().contains(&"gnd"));
    }

    #[test]
    fn recursion_and_arity_are_typed() {
        let rec = parse_deck(
            "t\n.SUBCKT a p\nX1 p A\n.ENDS\nX0 top a\n",
        )
        .unwrap();
        let e = flatten(&rec).unwrap_err();
        assert!(matches!(e, NetlistError::RecursiveSubckt { .. }), "{e}");
        assert!(e.span().is_valid());

        let arity = parse_deck("t\n.SUBCKT s a b\nR1 a b 1\n.ENDS\nX1 n1 s\n").unwrap();
        let e = flatten(&arity).unwrap_err();
        assert!(matches!(
            e,
            NetlistError::PortArity {
                expected: 2,
                got: 1,
                ..
            }
        ));

        let unknown = parse_deck("t\nX1 a b nosuch\n").unwrap();
        let e = flatten(&unknown).unwrap_err();
        assert!(matches!(e, NetlistError::UnknownSubckt { .. }));
    }

    #[test]
    fn coupling_references_are_scoped() {
        let deck = parse_deck(
            "t\n\
             .SUBCKT pairseg a b c d\n\
             L1 a b 1n\n\
             L2 c d 1n\n\
             K1 L1 L2 0.5\n\
             .ENDS\n\
             X1 p q r s pairseg\n",
        )
        .unwrap();
        let flat = flatten(&deck).unwrap();
        let ElementKind::Coupling { l1, l2, .. } = &flat.elements[2].kind else {
            panic!("expected coupling");
        };
        assert_eq!(l1, "X1.L1");
        assert_eq!(l2, "X1.L2");
    }
}
