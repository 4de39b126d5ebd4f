//! Recursive-descent deck parser.
//!
//! Grammar subset (one card per logical line; see [`crate::lexer`]):
//!
//! ```text
//! deck      := title-line card* [".END"]
//! card      := element | instance | subckt | analysis
//! element   := R|C|L name node node value
//!            | K name lname lname value
//!            | V|I name node node source
//! source    := [value] ("DC" value | "AC" value
//!            | "PULSE" value{2,7} | "PWL" (value value)+)*
//! instance  := X name node* subname
//! subckt    := ".SUBCKT" name port* (element | instance)* ".ENDS" [name]
//! analysis  := ".OP" | ".AC" ("DEC"|"LIN") n fstart fstop
//!            | ".TRAN" tstep tstop
//! ```
//!
//! The first line of the file is always the title card (classic SPICE
//! behaviour: an element on line 1 is swallowed as the title).
//!
//! Cards dispatch on their first byte and keywords compare with
//! `eq_ignore_ascii_case`, so nothing is upper-cased to be recognised.
//! Names and nodes borrow the deck text; an element, instance,
//! subcircuit or `K`-reference name is copied (upper-cased) only when
//! it has a lowercase ASCII letter.

use crate::ast::{
    AcSweep, AnalysisCard, Deck, ElementKind, ElementStmt, InstanceStmt, SourceSpec, Stmt,
    SubcktDef, WaveSpec,
};
use crate::error::NetlistError;
use crate::lexer::{end_span, lex_from, Cards, Tok};
use crate::value::parse_value;
use std::borrow::Cow;

/// Parses a full deck.
///
/// # Errors
///
/// Any [`NetlistError`] from the lexer or grammar; the span points at
/// the offending token (or just past the last token for missing
/// fields).
pub fn parse_deck(src: &str) -> Result<Deck<'_>, NetlistError> {
    let (title, rest) = match src.split_once('\n') {
        Some((t, rest)) => (t.strip_suffix('\r').unwrap_or(t), rest),
        None => (src, ""),
    };
    let cards = lex_from(rest, 2)?;
    let mut i = 0usize;
    let stmts = parse_stmts(&cards, &mut i, None)?;
    let deck = Deck {
        title: Cow::Borrowed(title),
        stmts,
    };
    check_duplicate_subckts(&deck)?;
    Ok(deck)
}

fn check_duplicate_subckts(deck: &Deck<'_>) -> Result<(), NetlistError> {
    let mut seen: Vec<&str> = Vec::new();
    for s in &deck.stmts {
        if let Stmt::Subckt(d) = s {
            if seen.iter().any(|n| *n == d.name) {
                return Err(NetlistError::DuplicateSubckt {
                    span: d.span,
                    name: d.name.to_string(),
                });
            }
            seen.push(&d.name);
        }
    }
    Ok(())
}

/// An element, instance or subcircuit name, upper-cased (SPICE names
/// are case-insensitive): borrowed unless it has a lowercase ASCII
/// letter to fold.
fn fold(text: &str) -> Cow<'_, str> {
    if text.bytes().any(|b| b.is_ascii_lowercase()) {
        Cow::Owned(text.to_ascii_uppercase())
    } else {
        Cow::Borrowed(text)
    }
}

/// Parses cards until end-of-deck, `.END`, or (inside a subckt body)
/// `.ENDS`. `inside` carries the enclosing `.SUBCKT` for context.
fn parse_stmts<'src>(
    cards: &Cards<'src>,
    i: &mut usize,
    inside: Option<&SubcktDef<'src>>,
) -> Result<Vec<Stmt<'src>>, NetlistError> {
    let mut out = Vec::new();
    while *i < cards.len() {
        let card = cards.card(*i);
        let head = &card[0];
        let stmt = match head.text.as_bytes()[0].to_ascii_uppercase() {
            b'.' => {
                let kw = head.text;
                if kw.eq_ignore_ascii_case(".ENDS") {
                    if inside.is_some() {
                        return Ok(out); // caller consumes the .ENDS line
                    }
                    return Err(NetlistError::Expected {
                        span: head.span,
                        what: ".ENDS only closes a .SUBCKT body".to_owned(),
                    });
                }
                if kw.eq_ignore_ascii_case(".END") {
                    if let Some(d) = inside {
                        return Err(NetlistError::UnterminatedSubckt {
                            span: d.span,
                            name: d.name.to_string(),
                        });
                    }
                    *i = cards.len();
                    return Ok(out);
                }
                if kw.eq_ignore_ascii_case(".SUBCKT") {
                    if inside.is_some() {
                        return Err(NetlistError::NestedSubckt { span: head.span });
                    }
                    out.push(Stmt::Subckt(parse_subckt(cards, i)?));
                    continue;
                }
                if inside.is_some() {
                    return Err(NetlistError::Expected {
                        span: head.span,
                        what: "only elements and X instances inside .SUBCKT".to_owned(),
                    });
                }
                Stmt::Analysis(parse_analysis(card)?)
            }
            b'R' | b'C' | b'L' | b'K' | b'V' | b'I' => Stmt::Element(parse_element(card)?),
            b'X' => Stmt::Instance(parse_instance(card)?),
            _ => {
                return Err(NetlistError::UnknownCard {
                    span: head.span,
                    card: head.text.to_owned(),
                })
            }
        };
        out.push(stmt);
        *i += 1;
    }
    if let Some(d) = inside {
        return Err(NetlistError::UnterminatedSubckt {
            span: d.span,
            name: d.name.to_string(),
        });
    }
    Ok(out)
}

fn parse_subckt<'src>(cards: &Cards<'src>, i: &mut usize) -> Result<SubcktDef<'src>, NetlistError> {
    let card = cards.card(*i);
    if card.len() < 2 {
        return Err(NetlistError::Expected {
            span: end_span(card),
            what: "subcircuit name after .SUBCKT".to_owned(),
        });
    }
    let mut def = SubcktDef {
        name: fold(card[1].text),
        span: card[0].span,
        ports: card[2..].iter().map(|t| Cow::Borrowed(t.text)).collect(),
        body: Vec::new(),
    };
    *i += 1;
    def.body = parse_stmts(cards, i, Some(&def))?;
    // parse_stmts returned at a `.ENDS` line; consume it (an optional
    // name operand must match).
    if let Some(tok) = cards.card(*i).get(1) {
        if !tok.text.eq_ignore_ascii_case(&def.name) {
            return Err(NetlistError::Expected {
                span: tok.span,
                what: format!(".ENDS {} (or bare .ENDS)", def.name),
            });
        }
    }
    *i += 1;
    Ok(def)
}

/// Expects exactly `n` operand tokens after the card keyword/name.
fn operands<'c, 'src>(
    card: &'c [Tok<'src>],
    n: usize,
    what: &str,
) -> Result<&'c [Tok<'src>], NetlistError> {
    let ops = &card[1..];
    if ops.len() < n {
        return Err(NetlistError::Expected {
            span: end_span(card),
            what: format!("{what} ({n} field(s), got {})", ops.len()),
        });
    }
    if ops.len() > n {
        return Err(NetlistError::Expected {
            span: ops[n].span,
            what: format!("end of card after {what}"),
        });
    }
    Ok(ops)
}

/// A token in value position.
fn value(tok: &Tok<'_>) -> Result<f64, NetlistError> {
    parse_value(tok.text, tok.span)
}

fn parse_element<'src>(card: &[Tok<'src>]) -> Result<ElementStmt<'src>, NetlistError> {
    let head = &card[0];
    let node = |t: &Tok<'src>| Cow::Borrowed(t.text);
    let kind = match head.text.as_bytes()[0].to_ascii_uppercase() {
        b'R' => {
            let ops = operands(card, 3, "node node value")?;
            ElementKind::Resistor {
                a: node(&ops[0]),
                b: node(&ops[1]),
                ohms: value(&ops[2])?,
            }
        }
        b'C' => {
            let ops = operands(card, 3, "node node value")?;
            ElementKind::Capacitor {
                a: node(&ops[0]),
                b: node(&ops[1]),
                farads: value(&ops[2])?,
            }
        }
        b'L' => {
            let ops = operands(card, 3, "node node value")?;
            ElementKind::Inductor {
                a: node(&ops[0]),
                b: node(&ops[1]),
                henries: value(&ops[2])?,
            }
        }
        b'K' => {
            let ops = operands(card, 3, "inductor inductor k")?;
            ElementKind::Coupling {
                l1: fold(ops[0].text),
                l2: fold(ops[1].text),
                k: value(&ops[2])?,
            }
        }
        letter @ (b'V' | b'I') => {
            if card.len() < 3 {
                return Err(NetlistError::Expected {
                    span: end_span(card),
                    what: "two nodes after source name".to_owned(),
                });
            }
            let plus = node(&card[1]);
            let minus = node(&card[2]);
            let source = parse_source(&card[3..])?;
            if letter == b'V' {
                ElementKind::Vsrc {
                    plus,
                    minus,
                    source,
                }
            } else {
                ElementKind::Isrc {
                    plus,
                    minus,
                    source,
                }
            }
        }
        // Dispatch guarantees an element letter; keep a typed fallback
        // instead of a panic for defence in depth.
        _ => {
            return Err(NetlistError::UnknownCard {
                span: head.span,
                card: head.text.to_owned(),
            })
        }
    };
    Ok(ElementStmt {
        name: fold(head.text),
        span: head.span,
        kind,
    })
}

/// The keywords of a source specification.
#[derive(Clone, Copy)]
enum SourceKeyword {
    Dc,
    Ac,
    Pulse,
    Pwl,
}

fn source_keyword(text: &str) -> Option<SourceKeyword> {
    [
        ("DC", SourceKeyword::Dc),
        ("AC", SourceKeyword::Ac),
        ("PULSE", SourceKeyword::Pulse),
        ("PWL", SourceKeyword::Pwl),
    ]
    .into_iter()
    .find_map(|(kw, which)| text.eq_ignore_ascii_case(kw).then_some(which))
}

/// Parses the source-specification tail of a `V`/`I` card.
fn parse_source(toks: &[Tok<'_>]) -> Result<SourceSpec, NetlistError> {
    let mut wave: Option<WaveSpec> = None;
    let mut ac_mag: Option<f64> = None;
    let mut i = 0usize;
    // Collects the numeric run starting at `i` (up to `max` values).
    let numeric_run = |i: &mut usize, max: usize| -> Result<Vec<f64>, NetlistError> {
        let mut vals = Vec::new();
        while *i < toks.len() && vals.len() < max {
            let t = &toks[*i];
            if source_keyword(t.text).is_some() {
                break;
            }
            vals.push(value(t)?);
            *i += 1;
        }
        Ok(vals)
    };
    while i < toks.len() {
        let t = &toks[i];
        match source_keyword(t.text) {
            Some(SourceKeyword::Dc) => {
                i += 1;
                let Some(v) = toks.get(i) else {
                    return Err(NetlistError::Expected {
                        span: t.span,
                        what: "value after DC".to_owned(),
                    });
                };
                wave = Some(WaveSpec::Dc(value(v)?));
                i += 1;
            }
            Some(SourceKeyword::Ac) => {
                i += 1;
                let Some(v) = toks.get(i) else {
                    return Err(NetlistError::Expected {
                        span: t.span,
                        what: "magnitude after AC".to_owned(),
                    });
                };
                ac_mag = Some(value(v)?);
                i += 1;
            }
            Some(SourceKeyword::Pulse) => {
                i += 1;
                let vals = numeric_run(&mut i, 7)?;
                if vals.len() < 2 {
                    return Err(NetlistError::Expected {
                        span: t.span,
                        what: "PULSE needs at least v0 and v1".to_owned(),
                    });
                }
                let rise = vals.get(3).copied().unwrap_or(0.0);
                wave = Some(WaveSpec::Pulse {
                    v0: vals[0],
                    v1: vals[1],
                    delay: vals.get(2).copied().unwrap_or(0.0),
                    rise,
                    fall: vals.get(4).copied().unwrap_or(rise),
                    width: vals.get(5).copied().unwrap_or(f64::INFINITY),
                    period: vals.get(6).copied().unwrap_or(f64::INFINITY),
                });
            }
            Some(SourceKeyword::Pwl) => {
                i += 1;
                let vals = numeric_run(&mut i, usize::MAX)?;
                if vals.is_empty() || vals.len() % 2 != 0 {
                    return Err(NetlistError::Expected {
                        span: t.span,
                        what: "PWL needs an even, nonzero number of values".to_owned(),
                    });
                }
                wave = Some(WaveSpec::Pwl(
                    vals.chunks_exact(2).map(|p| (p[0], p[1])).collect(),
                ));
            }
            None => {
                // A bare leading number is shorthand for `DC <number>`.
                if wave.is_none() && ac_mag.is_none() {
                    wave = Some(WaveSpec::Dc(value(t)?));
                    i += 1;
                } else {
                    return Err(NetlistError::Expected {
                        span: t.span,
                        what: "DC, AC, PULSE, or PWL".to_owned(),
                    });
                }
            }
        }
    }
    Ok(SourceSpec {
        wave: wave.unwrap_or(WaveSpec::Dc(0.0)),
        ac_mag,
    })
}

fn parse_instance<'src>(card: &[Tok<'src>]) -> Result<InstanceStmt<'src>, NetlistError> {
    let head = &card[0];
    if card.len() < 2 {
        return Err(NetlistError::Expected {
            span: end_span(card),
            what: "nodes and a subcircuit name after X instance".to_owned(),
        });
    }
    let last = card.len() - 1;
    Ok(InstanceStmt {
        name: fold(head.text),
        span: head.span,
        nodes: card[1..last]
            .iter()
            .map(|t| Cow::Borrowed(t.text))
            .collect(),
        subckt: fold(card[last].text),
    })
}

fn parse_analysis(card: &[Tok<'_>]) -> Result<AnalysisCard, NetlistError> {
    let head = &card[0];
    let kw = head.text;
    if kw.eq_ignore_ascii_case(".OP") {
        operands(card, 0, ".OP takes no fields")?;
        Ok(AnalysisCard::Op { span: head.span })
    } else if kw.eq_ignore_ascii_case(".AC") {
        let ops = operands(card, 4, "DEC|LIN n fstart fstop")?;
        let sweep = if ops[0].text.eq_ignore_ascii_case("DEC") {
            AcSweep::Dec
        } else if ops[0].text.eq_ignore_ascii_case("LIN") {
            AcSweep::Lin
        } else {
            return Err(NetlistError::Expected {
                span: ops[0].span,
                what: "DEC or LIN".to_owned(),
            });
        };
        let points = parse_count(&ops[1])?;
        Ok(AnalysisCard::Ac {
            span: head.span,
            sweep,
            points,
            fstart: value(&ops[2])?,
            fstop: value(&ops[3])?,
        })
    } else if kw.eq_ignore_ascii_case(".TRAN") {
        let ops = operands(card, 2, "tstep tstop")?;
        Ok(AnalysisCard::Tran {
            span: head.span,
            tstep: value(&ops[0])?,
            tstop: value(&ops[1])?,
        })
    } else {
        Err(NetlistError::UnknownCard {
            span: head.span,
            card: kw.to_owned(),
        })
    }
}

/// Parses a positive integer count field.
fn parse_count(tok: &Tok<'_>) -> Result<usize, NetlistError> {
    match tok.text.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(NetlistError::BadNumber {
            span: tok.span,
            text: tok.text.to_owned(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_basic_subset() {
        let deck = parse_deck(
            "basic RC deck\n\
             R1 in out 5k\n\
             C1 out 0 2p\n\
             V1 in 0 DC 1.8 AC 1\n\
             .OP\n\
             .AC DEC 3 1e8 1e10\n\
             .TRAN 2p 900p\n\
             .END\n",
        )
        .unwrap();
        assert_eq!(deck.title, "basic RC deck");
        assert_eq!(deck.stmts.len(), 6);
        let Stmt::Element(r) = &deck.stmts[0] else {
            panic!("expected element");
        };
        assert_eq!(r.name, "R1");
        assert_eq!(
            r.kind,
            ElementKind::Resistor {
                a: "in".into(),
                b: "out".into(),
                ohms: 5e3,
            }
        );
        let Stmt::Element(v) = &deck.stmts[2] else {
            panic!("expected source");
        };
        let ElementKind::Vsrc { source, .. } = &v.kind else {
            panic!("expected vsrc");
        };
        assert_eq!(source.wave, WaveSpec::Dc(1.8));
        assert_eq!(source.ac_mag, Some(1.0));
    }

    #[test]
    fn subckt_roundtrip_structure() {
        let deck = parse_deck(
            "subckt deck\n\
             .SUBCKT seg a b\n\
             R1 a mid 10\n\
             L1 mid b 1n\n\
             .ENDS seg\n\
             X1 in out SEG\n\
             V1 in 0 PULSE(0 1.8 10p 10p)\n",
        )
        .unwrap();
        let Stmt::Subckt(d) = &deck.stmts[0] else {
            panic!("expected subckt");
        };
        assert_eq!(d.name, "SEG");
        assert_eq!(d.ports, vec!["a", "b"]);
        assert_eq!(d.body.len(), 2);
        let Stmt::Instance(x) = &deck.stmts[1] else {
            panic!("expected instance");
        };
        assert_eq!(x.subckt, "SEG");
        assert_eq!(x.nodes, vec!["in", "out"]);
        let Stmt::Element(v) = &deck.stmts[2] else {
            panic!("expected source");
        };
        let ElementKind::Vsrc { source, .. } = &v.kind else {
            panic!("expected vsrc");
        };
        assert_eq!(
            source.wave,
            WaveSpec::Pulse {
                v0: 0.0,
                v1: 1.8,
                delay: 10e-12,
                rise: 10e-12,
                fall: 10e-12,
                width: f64::INFINITY,
                period: f64::INFINITY,
            }
        );
    }

    #[test]
    fn errors_carry_spans() {
        let cases = [
            ("t\nQ1 a b c\n", 2u32),           // unknown element
            ("t\nR1 a b\n", 2),                // missing value
            ("t\nR1 a b 5 extra\n", 2),        // trailing junk
            ("t\n.SUBCKT s a\nR1 a 0 1\n", 2), // unterminated
            ("t\n.SUBCKT s a\n.SUBCKT t b\n", 3),
            ("t\n.ENDS\n", 2),
            ("t\n.AC OCT 3 1 10\n", 2),
            ("t\nV1 a 0 DC\n", 2),
            ("t\nV1 a 0 PWL(1 2 3)\n", 2),
            ("t\n.SUBCKT s a\nR1 a 0 1\n.ENDS other\n", 4),
        ];
        for (src, line) in cases {
            let e = parse_deck(src).unwrap_err();
            assert!(e.span().is_valid(), "{src:?}: {e}");
            assert_eq!(e.span().line, line, "{src:?}: {e}");
        }
    }

    #[test]
    fn duplicate_subckts_rejected() {
        let e = parse_deck("t\n.SUBCKT s a\n.ENDS\n.SUBCKT s b\n.ENDS\n").unwrap_err();
        assert!(matches!(e, NetlistError::DuplicateSubckt { .. }));
        assert_eq!(e.span().line, 4);
    }

    #[test]
    fn dot_end_stops_parsing() {
        let deck = parse_deck("t\nR1 a 0 1\n.END\ngarbage beyond end\n").unwrap();
        assert_eq!(deck.stmts.len(), 1);
    }
}
