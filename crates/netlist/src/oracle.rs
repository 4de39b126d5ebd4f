//! The previous lexer and parser, kept as test oracles for the
//! borrowing frontend in [`crate::lexer`] and [`crate::parser`].
//!
//! They are the code the borrowing frontend replaced, changed only to
//! build the current AST (every string an owned [`std::borrow::Cow`]).
//! A property test lexes and parses generated decks with both and
//! asserts the same `Result`: the same cards, or equal decks with every
//! span, or the equal error variant and span.

/// The previous lexer: a `String` per token, a `Vec` per card.
mod lexer {
    use crate::error::NetlistError;
    use crate::span::Span;

    /// One token: its text and physical position.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Tok {
        /// The token text, verbatim (no case folding — the parser folds
        /// keywords and element names, never node names).
        pub text: String,
        /// Physical position of the token.
        pub span: Span,
    }

    /// One logical line (continuations already merged), never empty.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Line {
        /// The tokens of the card, in order.
        pub toks: Vec<Tok>,
    }

    impl Line {
        /// Point span just past the last token — where a missing field
        /// would have been.
        pub fn end_span(&self) -> Span {
            self.toks.last().map_or_else(Span::default, |t| {
                Span::new(t.span.line, t.span.col + t.span.len, 0)
            })
        }
    }

    /// Characters that separate tokens (beyond ASCII whitespace).
    fn is_separator(c: char) -> bool {
        matches!(c, '(' | ')' | ',' | '=')
    }

    /// Lexes deck text into logical lines, numbering physical lines from
    /// `first_line` (the deck parser passes 2: line 1 is the title).
    ///
    /// # Errors
    ///
    /// [`NetlistError::Lex`] on control characters outside `\t`/`\r`/`\n`
    /// and on a `+` continuation with no preceding card.
    pub fn lex_from(src: &str, first_line: u32) -> Result<Vec<Line>, NetlistError> {
        let mut lines: Vec<Line> = Vec::new();
        for (k, raw) in src.lines().enumerate() {
            let line_no = first_line + k as u32;
            let text = raw.strip_suffix('\r').unwrap_or(raw);
            let mut chars = text.char_indices().peekable();
            // Leading blanks, then classify the line.
            let mut col = 0u32; // 1-indexed col of the char about to be read
            let mut first = None;
            for (_, c) in chars.by_ref() {
                col += 1;
                if !c.is_whitespace() {
                    first = Some((c, col));
                    break;
                }
            }
            let Some((first_c, first_col)) = first else {
                continue; // blank line
            };
            if first_c == '*' {
                continue; // full-line comment
            }
            let continuation = first_c == '+';
            if continuation && lines.is_empty() {
                return Err(NetlistError::Lex {
                    span: Span::new(line_no, first_col, 1),
                    what: "continuation line with no card to continue".to_owned(),
                });
            }
            // Tokenize the rest of the line (including first_c unless it
            // was the continuation marker).
            let mut toks: Vec<Tok> = Vec::new();
            let mut cur = String::new();
            let mut cur_col = 0u32;
            let flush = |cur: &mut String, cur_col: u32, toks: &mut Vec<Tok>| {
                if !cur.is_empty() {
                    toks.push(Tok {
                        span: Span::new(line_no, cur_col, cur.chars().count() as u32),
                        text: std::mem::take(cur),
                    });
                }
            };
            let mut handle = |c: char, col: u32| -> Result<(), NetlistError> {
                if c == ';' {
                    // Inline comment: stop the line by signalling via a
                    // sentinel error-free path — handled by caller below.
                    return Ok(());
                }
                if c.is_whitespace() || is_separator(c) {
                    flush(&mut cur, cur_col, &mut toks);
                } else if c.is_control() {
                    return Err(NetlistError::Lex {
                        span: Span::new(line_no, col, 1),
                        what: format!("control character U+{:04X}", c as u32),
                    });
                } else {
                    if cur.is_empty() {
                        cur_col = col;
                    }
                    cur.push(c);
                }
                Ok(())
            };
            let mut stopped = false;
            if !continuation {
                if first_c == ';' {
                    stopped = true;
                } else {
                    handle(first_c, first_col)?;
                }
            }
            if !stopped {
                for (_, c) in chars {
                    col += 1;
                    if c == ';' {
                        break;
                    }
                    handle(c, col)?;
                }
            }
            flush(&mut cur, cur_col, &mut toks);
            if continuation {
                if let Some(last) = lines.last_mut() {
                    last.toks.extend(toks);
                }
            } else if !toks.is_empty() {
                lines.push(Line { toks });
            }
        }
        Ok(lines)
    }
}

/// The previous parser: upper-cases every card head and keyword.
mod parser {
    use super::lexer::{lex_from, Line, Tok};
    use crate::ast::{
        AcSweep, AnalysisCard, Deck, ElementKind, ElementStmt, InstanceStmt, SourceSpec, Stmt,
        SubcktDef, WaveSpec,
    };
    use crate::error::NetlistError;
    use crate::value::parse_value;
    use std::borrow::Cow;

    /// Parses a full deck.
    ///
    /// # Errors
    ///
    /// Any [`NetlistError`] from the lexer or grammar; the span points at
    /// the offending token (or just past the last token for missing
    /// fields).
    pub fn parse_deck(src: &str) -> Result<Deck<'static>, NetlistError> {
        let (title, rest) = match src.split_once('\n') {
            Some((t, rest)) => (t.strip_suffix('\r').unwrap_or(t), rest),
            None => (src, ""),
        };
        let lines = lex_from(rest, 2)?;
        let mut i = 0usize;
        let stmts = parse_stmts(&lines, &mut i, None)?;
        let mut deck = Deck {
            title: Cow::Owned(title.to_owned()),
            stmts,
        };
        check_duplicate_subckts(&deck)?;
        normalize_nop(&mut deck);
        Ok(deck)
    }

    /// No-op hook kept for symmetry with future canonicalization passes.
    fn normalize_nop(_deck: &mut Deck<'_>) {}

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

    /// Parses cards until end-of-deck, `.END`, or (inside a subckt body)
    /// `.ENDS`. `inside` carries the enclosing `.SUBCKT` for context.
    fn parse_stmts(
        lines: &[Line],
        i: &mut usize,
        inside: Option<&SubcktDef<'static>>,
    ) -> Result<Vec<Stmt<'static>>, NetlistError> {
        let mut out = Vec::new();
        while *i < lines.len() {
            let line = &lines[*i];
            let head = &line.toks[0];
            let head_up = head.text.to_ascii_uppercase();
            if head_up == ".ENDS" {
                if inside.is_some() {
                    return Ok(out); // caller consumes the .ENDS line
                }
                return Err(NetlistError::Expected {
                    span: head.span,
                    what: ".ENDS only closes a .SUBCKT body".to_owned(),
                });
            }
            if head_up == ".END" {
                if let Some(d) = inside {
                    return Err(NetlistError::UnterminatedSubckt {
                        span: d.span,
                        name: d.name.to_string(),
                    });
                }
                *i = lines.len();
                return Ok(out);
            }
            if head_up == ".SUBCKT" {
                if inside.is_some() {
                    return Err(NetlistError::NestedSubckt { span: head.span });
                }
                out.push(Stmt::Subckt(parse_subckt(lines, i)?));
                continue;
            }
            let stmt = match head_up.as_bytes().first() {
                Some(b'.') => {
                    if inside.is_some() {
                        return Err(NetlistError::Expected {
                            span: head.span,
                            what: "only elements and X instances inside .SUBCKT".to_owned(),
                        });
                    }
                    Stmt::Analysis(parse_analysis(line, &head_up)?)
                }
                Some(b'R' | b'C' | b'L' | b'K' | b'V' | b'I') => {
                    Stmt::Element(parse_element(line, &head_up)?)
                }
                Some(b'X') => Stmt::Instance(parse_instance(line, &head_up)?),
                _ => {
                    return Err(NetlistError::UnknownCard {
                        span: head.span,
                        card: head.text.clone(),
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

    fn parse_subckt(lines: &[Line], i: &mut usize) -> Result<SubcktDef<'static>, NetlistError> {
        let line = &lines[*i];
        let head = &line.toks[0];
        if line.toks.len() < 2 {
            return Err(NetlistError::Expected {
                span: line.end_span(),
                what: "subcircuit name after .SUBCKT".to_owned(),
            });
        }
        let mut def = SubcktDef {
            name: Cow::Owned(line.toks[1].text.to_ascii_uppercase()),
            span: head.span,
            ports: line.toks[2..]
                .iter()
                .map(|t| Cow::Owned(t.text.clone()))
                .collect(),
            body: Vec::new(),
        };
        *i += 1;
        def.body = parse_stmts(lines, i, Some(&def))?;
        // parse_stmts returned at a `.ENDS` line; consume it (an optional
        // name operand must match).
        let ends = &lines[*i];
        if let Some(tok) = ends.toks.get(1) {
            if tok.text.to_ascii_uppercase() != def.name {
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
    fn operands<'l>(line: &'l Line, n: usize, what: &str) -> Result<&'l [Tok], NetlistError> {
        let ops = &line.toks[1..];
        if ops.len() < n {
            return Err(NetlistError::Expected {
                span: line.end_span(),
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

    fn parse_element(line: &Line, head_up: &str) -> Result<ElementStmt<'static>, NetlistError> {
        let head = &line.toks[0];
        let name = Cow::Owned(head_up.to_owned());
        let kind = match head_up.as_bytes()[0] {
            b'R' => {
                let ops = operands(line, 3, "node node value")?;
                ElementKind::Resistor {
                    a: ops[0].text.clone().into(),
                    b: ops[1].text.clone().into(),
                    ohms: parse_value(&ops[2].text, ops[2].span)?,
                }
            }
            b'C' => {
                let ops = operands(line, 3, "node node value")?;
                ElementKind::Capacitor {
                    a: ops[0].text.clone().into(),
                    b: ops[1].text.clone().into(),
                    farads: parse_value(&ops[2].text, ops[2].span)?,
                }
            }
            b'L' => {
                let ops = operands(line, 3, "node node value")?;
                ElementKind::Inductor {
                    a: ops[0].text.clone().into(),
                    b: ops[1].text.clone().into(),
                    henries: parse_value(&ops[2].text, ops[2].span)?,
                }
            }
            b'K' => {
                let ops = operands(line, 3, "inductor inductor k")?;
                ElementKind::Coupling {
                    l1: Cow::Owned(ops[0].text.to_ascii_uppercase()),
                    l2: Cow::Owned(ops[1].text.to_ascii_uppercase()),
                    k: parse_value(&ops[2].text, ops[2].span)?,
                }
            }
            b'V' | b'I' => {
                if line.toks.len() < 3 {
                    return Err(NetlistError::Expected {
                        span: line.end_span(),
                        what: "two nodes after source name".to_owned(),
                    });
                }
                let plus = Cow::Owned(line.toks[1].text.clone());
                let minus = Cow::Owned(line.toks[2].text.clone());
                let source = parse_source(&line.toks[3..])?;
                if head_up.as_bytes()[0] == b'V' {
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
                    card: head.text.clone(),
                })
            }
        };
        Ok(ElementStmt {
            name,
            span: head.span,
            kind,
        })
    }

    /// Parses the source-specification tail of a `V`/`I` card.
    fn parse_source(toks: &[Tok]) -> Result<SourceSpec, NetlistError> {
        let mut wave: Option<WaveSpec> = None;
        let mut ac_mag: Option<f64> = None;
        let mut i = 0usize;
        // Collects the numeric run starting at `i` (up to `max` values).
        let numeric_run =
            |toks: &[Tok], i: &mut usize, max: usize| -> Result<Vec<f64>, NetlistError> {
                let mut vals = Vec::new();
                while *i < toks.len() && vals.len() < max {
                    let t = &toks[*i];
                    if is_source_keyword(&t.text) {
                        break;
                    }
                    vals.push(parse_value(&t.text, t.span)?);
                    *i += 1;
                }
                Ok(vals)
            };
        while i < toks.len() {
            let t = &toks[i];
            let up = t.text.to_ascii_uppercase();
            match up.as_str() {
                "DC" => {
                    i += 1;
                    let Some(v) = toks.get(i) else {
                        return Err(NetlistError::Expected {
                            span: t.span,
                            what: "value after DC".to_owned(),
                        });
                    };
                    wave = Some(WaveSpec::Dc(parse_value(&v.text, v.span)?));
                    i += 1;
                }
                "AC" => {
                    i += 1;
                    let Some(v) = toks.get(i) else {
                        return Err(NetlistError::Expected {
                            span: t.span,
                            what: "magnitude after AC".to_owned(),
                        });
                    };
                    ac_mag = Some(parse_value(&v.text, v.span)?);
                    i += 1;
                }
                "PULSE" => {
                    i += 1;
                    let vals = numeric_run(toks, &mut i, 7)?;
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
                "PWL" => {
                    i += 1;
                    let vals = numeric_run(toks, &mut i, usize::MAX)?;
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
                _ => {
                    // A bare leading number is shorthand for `DC <number>`.
                    if wave.is_none() && ac_mag.is_none() {
                        wave = Some(WaveSpec::Dc(parse_value(&t.text, t.span)?));
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

    fn is_source_keyword(text: &str) -> bool {
        matches!(
            text.to_ascii_uppercase().as_str(),
            "DC" | "AC" | "PULSE" | "PWL"
        )
    }

    fn parse_instance(line: &Line, head_up: &str) -> Result<InstanceStmt<'static>, NetlistError> {
        let head = &line.toks[0];
        if line.toks.len() < 2 {
            return Err(NetlistError::Expected {
                span: line.end_span(),
                what: "nodes and a subcircuit name after X instance".to_owned(),
            });
        }
        let last = line.toks.len() - 1;
        Ok(InstanceStmt {
            name: Cow::Owned(head_up.to_owned()),
            span: head.span,
            nodes: line.toks[1..last]
                .iter()
                .map(|t| Cow::Owned(t.text.clone()))
                .collect(),
            subckt: Cow::Owned(line.toks[last].text.to_ascii_uppercase()),
        })
    }

    fn parse_analysis(line: &Line, head_up: &str) -> Result<AnalysisCard, NetlistError> {
        let head = &line.toks[0];
        match head_up {
            ".OP" => {
                operands(line, 0, ".OP takes no fields")?;
                Ok(AnalysisCard::Op { span: head.span })
            }
            ".AC" => {
                let ops = operands(line, 4, "DEC|LIN n fstart fstop")?;
                let sweep = match ops[0].text.to_ascii_uppercase().as_str() {
                    "DEC" => AcSweep::Dec,
                    "LIN" => AcSweep::Lin,
                    _ => {
                        return Err(NetlistError::Expected {
                            span: ops[0].span,
                            what: "DEC or LIN".to_owned(),
                        })
                    }
                };
                let points = parse_count(&ops[1])?;
                Ok(AnalysisCard::Ac {
                    span: head.span,
                    sweep,
                    points,
                    fstart: parse_value(&ops[2].text, ops[2].span)?,
                    fstop: parse_value(&ops[3].text, ops[3].span)?,
                })
            }
            ".TRAN" => {
                let ops = operands(line, 2, "tstep tstop")?;
                Ok(AnalysisCard::Tran {
                    span: head.span,
                    tstep: parse_value(&ops[0].text, ops[0].span)?,
                    tstop: parse_value(&ops[1].text, ops[1].span)?,
                })
            }
            _ => Err(NetlistError::UnknownCard {
                span: head.span,
                card: head.text.clone(),
            }),
        }
    }

    /// Parses a positive integer count field.
    fn parse_count(tok: &Tok) -> Result<usize, NetlistError> {
        match tok.text.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(NetlistError::BadNumber {
                span: tok.span,
                text: tok.text.clone(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::ast::{ElementKind, Stmt};
    use crate::flatten::flatten;
    use proptest::prelude::*;
    use std::borrow::Cow;

    /// SplitMix64 over the property test's seed: decks are drawn from
    /// one `u64`, so a failure names the seed that reproduces it.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn one_in(&mut self, n: usize) -> bool {
            self.below(n) == 0
        }

        fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
            xs[self.below(xs.len())]
        }

        /// One of `xs`, with each ASCII letter's case flipped at random.
        fn pick_mixed(&mut self, xs: &[&str]) -> String {
            let text = self.pick(xs);
            self.mixed_case(text)
        }

        /// `text` with each ASCII letter's case flipped at random.
        fn mixed_case(&mut self, text: &str) -> String {
            text.chars()
                .map(|c| {
                    if c.is_ascii_alphabetic() && self.one_in(2) {
                        (c as u8 ^ 0x20) as char
                    } else {
                        c
                    }
                })
                .collect()
        }
    }

    /// Token separators: ASCII whitespace (VT and FF included), the
    /// punctuation separators and non-ASCII whitespace.
    const GAPS: &[&str] = &[
        " ", " ", " ", "  ", "\t", "\x0b", "\x0c", "\r", "(", ")", ",", "=", " = ", "\u{a0}",
        "\u{2028}", "\u{85}", "\u{3000}",
    ];
    const NODES: &[&str] = &[
        "0", "gnd", "GND", "in", "out", "Mid", "n1", "N1", "n2", "nœud", "ñ_2", "x.y", "a+b", "*s",
        "ﬁ",
    ];
    /// Values every card accepts, and values some or all reject.
    const GOOD_VALUES: &[&str] = &[
        "1k", "2.5MEG", "30fF", "1e-9", "5", "1.5p", "1mil", "10Hz", "4N",
    ];
    const BAD_VALUES: &[&str] = &["-3", "inf", "0", "abc", "nan", ".", "1.5", "x1"];
    const NAMES: &[&str] = &["1", "2", "a", "b", "x1", "Load", "é", "_3"];
    const INDUCTORS: &[&str] = &["L1", "la", "LB", "lx1"];
    const SUBCKTS: &[&str] = &["seg", "SEG", "Cell"];
    /// Bytes and characters no card should hold.
    const NOISE: &[&str] = &[
        "\x01", "\x7f", "\x1f", "\u{9b}", "\x08", "é", "\u{a0}", "+", "*", ";", ".ENDS",
    ];

    /// Draws decks: a clean one is well formed card by card, a noisy
    /// one mixes in bad values, wrong arities and stray characters.
    struct Decks {
        g: Gen,
        clean: bool,
    }

    impl Decks {
        fn value(&mut self) -> String {
            if !self.clean && self.g.one_in(3) {
                self.g.pick(BAD_VALUES).to_owned()
            } else {
                self.g.pick(GOOD_VALUES).to_owned()
            }
        }

        fn node(&mut self) -> String {
            self.g.pick(NODES).to_owned()
        }

        /// A mixed-case element or instance name starting with one of
        /// `letters`.
        fn name(&mut self, letters: &[&str]) -> String {
            let text = format!("{}{}", self.g.pick(letters), self.g.pick(NAMES));
            self.g.mixed_case(&text)
        }

        fn source_tail(&mut self) -> Vec<String> {
            let mut toks = Vec::new();
            let g = &mut self.g;
            if g.one_in(3) {
                toks.push(g.pick(&["0", "1.8", "5"]).to_owned());
            }
            if g.one_in(2) {
                toks.push(g.pick_mixed(&["DC", "PULSE", "PWL"]));
                let n = match toks.last().map(|t| t.to_ascii_uppercase()).as_deref() {
                    Some("DC") => 1,
                    Some("PULSE") => 2 + g.below(6),
                    _ => 2 * (1 + g.below(3)),
                };
                for k in 0..n {
                    toks.push(if k % 2 == 0 { "0" } else { "1n" }.to_owned());
                }
            }
            if g.one_in(2) {
                toks.push(g.pick_mixed(&["AC"]));
                toks.push(g.pick(&["1", "0.5"]).to_owned());
            }
            if !self.clean && self.g.one_in(3) {
                toks.push(
                    self.g
                        .pick(&["DC", "ac", "Pwl", "pulse", "x", "1"])
                        .to_owned(),
                );
            }
            toks
        }

        /// One card's tokens: an element, an instance or an analysis.
        fn card(&mut self) -> Vec<String> {
            let mut toks = match self.g.below(10) {
                0..=2 => vec![
                    self.name(&["R", "C"]),
                    self.node(),
                    self.node(),
                    self.value(),
                ],
                3 => {
                    let l = self.g.pick_mixed(INDUCTORS);
                    vec![l, self.node(), self.node(), self.value()]
                }
                4 => vec![
                    self.name(&["K"]),
                    self.g.pick_mixed(INDUCTORS),
                    self.g.pick_mixed(INDUCTORS),
                    self.g.pick(&["0.5", "-0.3", "0.9"]).to_owned(),
                ],
                5 | 6 => {
                    let mut t = vec![self.name(&["V", "I"]), self.node(), self.node()];
                    t.extend(self.source_tail());
                    t
                }
                7 => {
                    let mut t = vec![self.name(&["X"])];
                    for _ in 0..2 {
                        t.push(self.node());
                    }
                    t.push(self.g.pick_mixed(SUBCKTS));
                    t
                }
                8 => match self.g.below(3) {
                    0 => vec![self.g.pick_mixed(&[".OP"])],
                    1 => vec![
                        self.g.pick_mixed(&[".AC"]),
                        self.g.pick_mixed(&["DEC", "LIN"]),
                        self.g.pick(&["3", "1", "10"]).to_owned(),
                        "1e8".to_owned(),
                        "1e10".to_owned(),
                    ],
                    _ => vec![
                        self.g.pick_mixed(&[".TRAN"]),
                        "1p".to_owned(),
                        "1n".to_owned(),
                    ],
                },
                _ if self.clean => vec![self.g.pick_mixed(&[".OP"])],
                _ => {
                    let kw = [
                        ".foo", "Q1", "é1", ".END", ".ENDS", ".SUBCKT", ".AC", "+", "(",
                    ];
                    vec![self.g.pick(&kw).to_owned(), self.node()]
                }
            };
            if !self.clean && self.g.one_in(4) {
                if self.g.one_in(2) && toks.len() > 1 {
                    toks.pop();
                } else {
                    toks.push(self.value());
                }
            }
            toks
        }

        /// Appends one physical line per card, `tokens` joined by random
        /// gaps; sometimes splits the card over a `+` continuation.
        fn push_card(&mut self, out: &mut String, tokens: &[String]) {
            let g = &mut self.g;
            if g.one_in(8) {
                out.push_str(g.pick(GAPS));
            }
            let split = if g.one_in(5) {
                1 + g.below(tokens.len().max(1))
            } else {
                0
            };
            for (k, t) in tokens.iter().enumerate() {
                if k > 0 && k == split {
                    out.push_str(g.pick(&["\n+ ", "\r\n+", "\n \u{a0}+\t", "\n* note\n+ "]));
                } else if k > 0 {
                    out.push_str(g.pick(GAPS));
                    if g.one_in(10) {
                        out.push_str(g.pick(GAPS));
                    }
                }
                if !self.clean && g.one_in(40) {
                    out.push_str(g.pick(NOISE));
                }
                out.push_str(t);
            }
            if g.one_in(6) {
                out.push_str(g.pick(&[" ; trailing é\x01", ";x", "\t;"]));
            }
        }

        fn newline(&mut self, out: &mut String) {
            out.push_str(self.g.pick(&["\n", "\n", "\n", "\r\n", "\r\r\n"]));
        }

        /// A deck over every card kind: mixed-case names and keywords,
        /// every separator, comments, continuations, blank lines,
        /// `\r\n`, non-ASCII nodes and (when noisy) stray control and
        /// non-ASCII characters.
        fn deck(seed: u64) -> String {
            let mut d = Decks {
                g: Gen(seed),
                clean: seed % 2 == 0,
            };
            let mut out =
                d.g.pick(&["title", "t\r", "", "R1 a b 1", "tïtle \x01"])
                    .to_owned();
            for _ in 0..d.g.below(24) {
                d.newline(&mut out);
                match d.g.below(14) {
                    0 => out.push_str(d.g.pick(&["* comment", "  * indented é\x01", "; note", ""])),
                    1 => out.push_str(d.g.pick(&["", "   ", "\t\x0b\x0c", "\u{a0}", "( , )"])),
                    2 => {
                        // A subcircuit with a body of elements.
                        let name = d.g.pick_mixed(SUBCKTS);
                        let mut head = vec![d.g.pick_mixed(&[".SUBCKT"]), name.clone()];
                        head.extend(["a", "b"].map(str::to_owned));
                        d.push_card(&mut out, &head);
                        for _ in 0..1 + d.g.below(3) {
                            d.newline(&mut out);
                            let body =
                                vec![d.name(&["R", "C"]), "a".to_owned(), d.node(), d.value()];
                            d.push_card(&mut out, &body);
                        }
                        d.newline(&mut out);
                        let mut ends = vec![d.g.pick_mixed(&[".ENDS"])];
                        if d.g.one_in(2) {
                            ends.push(name);
                        }
                        d.push_card(&mut out, &ends);
                    }
                    _ => {
                        let toks = d.card();
                        d.push_card(&mut out, &toks);
                    }
                }
            }
            if d.g.one_in(2) {
                out.push('\n');
            }
            out
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The borrowing lexer and parser give the old ones' `Result`
        /// on any generated deck: the same tokens and spans card by
        /// card, the same deck, or the same error and span.
        #[test]
        fn borrowing_frontend_matches_the_old_one(seed in 0u64..u64::MAX) {
            let src = Decks::deck(seed);
            match (crate::lexer::lex_from(&src, 2), super::lexer::lex_from(&src, 2)) {
                (Ok(cards), Ok(lines)) => {
                    prop_assert_eq!(cards.len(), lines.len(), "{:?}", src);
                    for (i, line) in lines.iter().enumerate() {
                        let got: Vec<(&str, crate::Span)> =
                            cards.card(i).iter().map(|t| (t.text, t.span)).collect();
                        let want: Vec<(&str, crate::Span)> =
                            line.toks.iter().map(|t| (t.text.as_str(), t.span)).collect();
                        prop_assert_eq!(got, want, "{:?}", src);
                    }
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b, "{:?}", src),
                (a, b) => prop_assert!(false, "{:?}: {:?} vs {:?}", src, a.map(|c| c.len()), b.map(|l| l.len())),
            }
            prop_assert_eq!(crate::parser::parse_deck(&src), super::parser::parse_deck(&src), "{:?}", src);
        }
    }

    /// The generator reaches both outcomes and the non-ASCII path.
    #[test]
    fn generated_decks_cover_accepts_and_rejects() {
        let (mut ok, mut err, mut non_ascii) = (0, 0, 0);
        for seed in 0..2_000 {
            let src = Decks::deck(seed);
            non_ascii += usize::from(!src.is_ascii());
            match crate::parser::parse_deck(&src) {
                Ok(d) if d.stmts.len() > 2 => ok += 1,
                Ok(_) => {}
                Err(_) => err += 1,
            }
        }
        assert!(
            ok > 500 && err > 500 && non_ascii > 1_000,
            "{ok} {err} {non_ascii}"
        );
    }

    /// On the checked-in Table-1 deck every name and node of the parsed
    /// deck, and of its flattening, borrows the text.
    #[test]
    fn table1_deck_borrows_every_string() {
        let src = include_str!("../../../tests/decks/table1_clock_net.cir");
        let deck = crate::parser::parse_deck(src).unwrap();
        let borrowed = |s: &Cow<'_, str>| matches!(s, Cow::Borrowed(_));
        let check = |e: &crate::ast::ElementStmt<'_>| {
            let names = match &e.kind {
                ElementKind::Resistor { a, b, .. }
                | ElementKind::Capacitor { a, b, .. }
                | ElementKind::Inductor { a, b, .. } => [a, b],
                ElementKind::Vsrc { plus, minus, .. } | ElementKind::Isrc { plus, minus, .. } => {
                    [plus, minus]
                }
                ElementKind::Coupling { l1, l2, .. } => [l1, l2],
            };
            assert!(
                borrowed(&e.name) && names.into_iter().all(borrowed),
                "{e:?}"
            );
        };
        assert!(borrowed(&deck.title));
        assert_eq!(deck.stmts.len(), 2_898);
        for s in &deck.stmts {
            match s {
                Stmt::Element(e) => check(e),
                Stmt::Analysis(_) => {}
                other => panic!("unexpected card {other:?}"),
            }
        }
        let flat = flatten(&deck).unwrap();
        assert_eq!(flat.elements.len(), 2_896);
        flat.elements.iter().for_each(check);
    }
}
