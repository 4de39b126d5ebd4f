//! Canonical deck pretty-printer.
//!
//! `print_deck` is the inverse of [`crate::parser::parse_deck`] up to
//! canonicalization: re-parsing its output yields an AST that prints
//! identically (the printer is a fixed point), and every numeric value
//! survives bit-exactly because [`crate::value::format_value`] uses
//! shortest-round-trip formatting and the parser's plain-number path
//! is the standard-library parser.

use crate::ast::{AcSweep, AnalysisCard, Deck, ElementKind, ElementStmt, Stmt, WaveSpec};
use crate::value::format_value;
use std::fmt::Write as _;

/// Renders a deck to canonical text (ends with `.END`).
pub fn print_deck(deck: &Deck<'_>) -> String {
    let mut out = String::new();
    out.push_str(&deck.title);
    out.push('\n');
    for s in &deck.stmts {
        print_stmt(&mut out, s);
    }
    out.push_str(".END\n");
    out
}

fn print_stmt(out: &mut String, s: &Stmt<'_>) {
    match s {
        Stmt::Element(e) => print_element(out, e),
        Stmt::Instance(x) => {
            out.push_str(&x.name);
            for n in &x.nodes {
                out.push(' ');
                out.push_str(n);
            }
            out.push(' ');
            out.push_str(&x.subckt);
            out.push('\n');
        }
        Stmt::Subckt(d) => {
            out.push_str(".SUBCKT ");
            out.push_str(&d.name);
            for p in &d.ports {
                out.push(' ');
                out.push_str(p);
            }
            out.push('\n');
            for s in &d.body {
                print_stmt(out, s);
            }
            let _ = writeln!(out, ".ENDS {}", d.name);
        }
        Stmt::Analysis(a) => print_analysis(out, a),
    }
}

fn print_element(out: &mut String, e: &ElementStmt<'_>) {
    match &e.kind {
        ElementKind::Resistor { a, b, ohms } => {
            let _ = writeln!(out, "{} {a} {b} {}", e.name, format_value(*ohms));
        }
        ElementKind::Capacitor { a, b, farads } => {
            let _ = writeln!(out, "{} {a} {b} {}", e.name, format_value(*farads));
        }
        ElementKind::Inductor { a, b, henries } => {
            let _ = writeln!(out, "{} {a} {b} {}", e.name, format_value(*henries));
        }
        ElementKind::Coupling { l1, l2, k } => {
            let _ = writeln!(out, "{} {l1} {l2} {}", e.name, format_value(*k));
        }
        ElementKind::Vsrc {
            plus,
            minus,
            source,
        }
        | ElementKind::Isrc {
            plus,
            minus,
            source,
        } => {
            let _ = write!(out, "{} {plus} {minus}", e.name);
            match &source.wave {
                WaveSpec::Dc(v) => {
                    let _ = write!(out, " DC {}", format_value(*v));
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
                    let _ = write!(
                        out,
                        " PULSE({} {} {} {} {} {} {})",
                        format_value(*v0),
                        format_value(*v1),
                        format_value(*delay),
                        format_value(*rise),
                        format_value(*fall),
                        format_value(*width),
                        format_value(*period),
                    );
                }
                WaveSpec::Pwl(pts) => {
                    let _ = write!(out, " PWL(");
                    for (i, (t, v)) in pts.iter().enumerate() {
                        if i > 0 {
                            out.push(' ');
                        }
                        let _ = write!(out, "{} {}", format_value(*t), format_value(*v));
                    }
                    out.push(')');
                }
            }
            if let Some(m) = source.ac_mag {
                let _ = write!(out, " AC {}", format_value(m));
            }
            out.push('\n');
        }
    }
}

fn print_analysis(out: &mut String, a: &AnalysisCard) {
    match a {
        AnalysisCard::Op { .. } => out.push_str(".OP\n"),
        AnalysisCard::Ac {
            sweep,
            points,
            fstart,
            fstop,
            ..
        } => {
            let kw = match sweep {
                AcSweep::Dec => "DEC",
                AcSweep::Lin => "LIN",
            };
            let _ = writeln!(
                out,
                ".AC {kw} {points} {} {}",
                format_value(*fstart),
                format_value(*fstop)
            );
        }
        AnalysisCard::Tran { tstep, tstop, .. } => {
            let _ = writeln!(
                out,
                ".TRAN {} {}",
                format_value(*tstep),
                format_value(*tstop)
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_deck;

    #[test]
    fn printer_is_a_fixed_point() {
        let src = "mixed deck\n\
                   .SUBCKT seg a b\n\
                   r1 a mid 10Meg\n\
                   l1 mid b 1nH\n\
                   .ENDS\n\
                   X1 in out seg\n\
                   V1 in 0 PULSE(0 1.8 1e-11 1e-11) AC 1\n\
                   I1 0 out DC 1m\n\
                   C3 out 0 30fF\n\
                   .AC DEC 3 1e8 1e10\n\
                   .OP\n";
        let once = print_deck(&parse_deck(src).unwrap());
        let twice = print_deck(&parse_deck(&once).unwrap());
        assert_eq!(once, twice);
        // Values survive bit-exactly through the canonical form.
        assert!(once.contains("R1 a mid 10000000"), "{once}");
        assert!(once.contains("C3 out 0 3e-14"), "{once}");
    }
}
