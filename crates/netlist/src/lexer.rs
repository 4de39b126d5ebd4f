//! Logical-line lexer for SPICE decks.
//!
//! SPICE is line-oriented: one card per *logical* line, where a
//! physical line starting with `+` continues the previous card. The
//! lexer resolves continuations and comments and splits each logical
//! line into whitespace/punctuation-separated tokens, each carrying the
//! [`Span`] of its physical position (so a diagnostic on a continued
//! card still points at the right physical line).
//!
//! Comment forms: a line whose first non-blank character is `*` is
//! skipped whole; `;` starts an inline comment running to end-of-line.
//! `(`, `)`, `,` and `=` are token separators (so `PULSE(0 1.8 …)` and
//! `PULSE 0 1.8 …` lex identically), which matches how SPICE dialects
//! treat them on element cards.
//!
//! A token is a slice of the deck text, never a copy. Every token of
//! the deck goes into one vector and each card is an index range into
//! it, so lexing allocates that vector and the range list and nothing
//! per token or per card. An ASCII line is lexed by one loop over its
//! bytes and a lookup table; a line with any non-ASCII byte before its
//! comment is lexed by `char` (`char::is_whitespace`,
//! `char::is_control`, columns and lengths counted in `char`s), which
//! is what the byte loop computes on ASCII text.

use crate::error::NetlistError;
use crate::span::Span;
use std::ops::Range;

/// One token: a slice of the deck text and its physical position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tok<'src> {
    /// The token text, verbatim (no case folding — the parser folds
    /// keywords and element names, never node names).
    pub text: &'src str,
    /// Physical position of the token.
    pub span: Span,
}

/// A lexed deck: its cards (logical lines, continuations merged, never
/// empty) as consecutive ranges of one token vector.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Cards<'src> {
    toks: Vec<Tok<'src>>,
    ranges: Vec<Range<usize>>,
}

impl<'src> Cards<'src> {
    /// Number of cards.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Whether the deck has no cards.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The tokens of card `i`, in order (at least one).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn card(&self, i: usize) -> &[Tok<'src>] {
        &self.toks[self.ranges[i].clone()]
    }

    /// Files the tokens pushed since `mark` (one physical line's): they
    /// extend the last card on a continuation line and open a card
    /// otherwise.
    fn close_line(&mut self, mark: usize, continuation: bool) {
        let end = self.toks.len();
        if continuation {
            if let Some(last) = self.ranges.last_mut() {
                last.end = end;
            }
        } else if end > mark {
            self.ranges.push(mark..end);
        }
    }
}

/// Point span just past the last token of a card — where a missing
/// field would have been.
pub fn end_span(card: &[Tok<'_>]) -> Span {
    card.last().map_or_else(Span::default, |t| {
        Span::new(t.span.line, t.span.col + t.span.len, 0)
    })
}

/// What a byte is to the ASCII path.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Part of a token.
    Word,
    /// Whitespace inside a line: the ASCII characters for which
    /// `char::is_whitespace` holds, less `\n`.
    Blank,
    /// `(`, `)`, `,` or `=`.
    Separator,
    /// `;`: the rest of the line is a comment.
    Comment,
    /// `\n`: the line ends.
    Newline,
    /// Any other ASCII character for which `char::is_control` holds.
    Control,
    /// Part of a multi-byte character: the line takes the `char` path.
    NonAscii,
}

const fn class_of(b: u8) -> Class {
    match b {
        b'\n' => Class::Newline,
        b'\t' | 0x0B | 0x0C | b'\r' | b' ' => Class::Blank,
        b'(' | b')' | b',' | b'=' => Class::Separator,
        b';' => Class::Comment,
        0x00..=0x1F | 0x7F => Class::Control,
        0x80..=0xFF => Class::NonAscii,
        _ => Class::Word,
    }
}

static CLASS: [Class; 256] = {
    let mut table = [Class::Word; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = class_of(b as u8);
        b += 1;
    }
    table
};

fn class(b: u8) -> Class {
    CLASS[usize::from(b)]
}

/// Characters that separate tokens (beyond whitespace).
fn is_separator(c: char) -> bool {
    matches!(c, '(' | ')' | ',' | '=')
}

fn orphan_continuation(line: u32, col: u32) -> NetlistError {
    NetlistError::Lex {
        span: Span::new(line, col, 1),
        what: "continuation line with no card to continue".to_owned(),
    }
}

fn control_char(line: u32, col: u32, c: char) -> NetlistError {
    NetlistError::Lex {
        span: Span::new(line, col, 1),
        what: format!("control character U+{:04X}", c as u32),
    }
}

/// Index just past the `\n` that ends the line holding `from` (the
/// text's length on the last line).
fn next_line(b: &[u8], from: usize) -> usize {
    b[from..]
        .iter()
        .position(|&c| c == b'\n')
        .map_or(b.len(), |p| from + p + 1)
}

/// Column (1-indexed) of an ASCII line's byte `i`; every byte before
/// it is one character.
fn col(line_start: usize, i: usize) -> u32 {
    (i - line_start + 1) as u32
}

/// Lexes deck text into cards, numbering physical lines from
/// `first_line` (the deck parser passes 2: line 1 is the title).
///
/// The whole text is lexed before anything is parsed, so the first
/// lexical error of a deck wins over any grammar error.
///
/// # Errors
///
/// [`NetlistError::Lex`] on control characters outside whitespace
/// (`\t`, `\n`, VT, FF, `\r`) and on a `+` continuation with no
/// preceding card.
pub fn lex_from(src: &str, first_line: u32) -> Result<Cards<'_>, NetlistError> {
    // A hint under the ≈ 12 bytes per token of generated decks.
    let mut cards = Cards {
        toks: Vec::with_capacity(src.len() / 16),
        ranges: Vec::new(),
    };
    let mut line = first_line;
    let mut at = 0;
    while at < src.len() {
        at = lex_line(src, at, line, &mut cards)?;
        line += 1;
    }
    Ok(cards)
}

/// Lexes the physical line starting at byte `start`; returns where the
/// next one starts.
fn lex_line<'src>(
    src: &'src str,
    start: usize,
    line: u32,
    cards: &mut Cards<'src>,
) -> Result<usize, NetlistError> {
    let b = src.as_bytes();
    let mut i = start;
    while i < b.len() && class(b[i]) == Class::Blank {
        i += 1;
    }
    let Some(&first) = b.get(i) else {
        return Ok(i);
    };
    match first {
        b'\n' => return Ok(i + 1),                 // blank line
        b'*' | b';' => return Ok(next_line(b, i)), // comment line
        0x80.. => return lex_line_chars(src, start, line, cards),
        _ => {}
    }
    let continuation = first == b'+';
    if continuation {
        if cards.is_empty() {
            return Err(orphan_continuation(line, col(start, i)));
        }
        i += 1;
    }
    let mark = cards.toks.len();
    let next = loop {
        while i < b.len() && matches!(class(b[i]), Class::Blank | Class::Separator) {
            i += 1;
        }
        let Some(&c) = b.get(i) else { break i };
        match class(c) {
            Class::Newline => break i + 1,
            Class::Comment => break next_line(b, i),
            Class::NonAscii => {
                cards.toks.truncate(mark);
                return lex_line_chars(src, start, line, cards);
            }
            Class::Control => return Err(control_char(line, col(start, i), char::from(c))),
            Class::Word | Class::Blank | Class::Separator => {
                let from = i;
                while i < b.len() && class(b[i]) == Class::Word {
                    i += 1;
                }
                cards.toks.push(Tok {
                    text: &src[from..i],
                    span: Span::new(line, col(start, from), (i - from) as u32),
                });
            }
        }
    };
    cards.close_line(mark, continuation);
    Ok(next)
}

/// [`lex_line`] for a line with a non-ASCII byte: the same rules over
/// `char`s.
fn lex_line_chars<'src>(
    src: &'src str,
    start: usize,
    line: u32,
    cards: &mut Cards<'src>,
) -> Result<usize, NetlistError> {
    let next = next_line(src.as_bytes(), start);
    let text = src[start..next]
        .strip_suffix('\n')
        .unwrap_or(&src[start..next]);
    let mut col = 0u32; // 1-indexed col of the char just read
    let mut first = None;
    for (at, c) in text.char_indices() {
        col += 1;
        if !c.is_whitespace() {
            first = Some((at, c));
            break;
        }
    }
    let Some((first_at, first_c)) = first else {
        return Ok(next); // blank line
    };
    if first_c == '*' || first_c == ';' {
        return Ok(next); // comment line
    }
    let continuation = first_c == '+';
    if continuation && cards.is_empty() {
        return Err(orphan_continuation(line, col));
    }
    // Tokenize from the first character (past the `+` on a
    // continuation line); `col` is the column before `from`.
    let from = if continuation {
        first_at + 1
    } else {
        col -= 1;
        first_at
    };
    let mark = cards.toks.len();
    // The token being read: byte range and span so far.
    let mut cur: Option<(Range<usize>, Span)> = None;
    let flush = |cur: &mut Option<(Range<usize>, Span)>, cards: &mut Cards<'src>| {
        if let Some((bytes, span)) = cur.take() {
            cards.toks.push(Tok {
                text: &text[bytes],
                span,
            });
        }
    };
    for (at, c) in text[from..].char_indices() {
        col += 1;
        if c == ';' {
            break;
        }
        if c.is_whitespace() || is_separator(c) {
            flush(&mut cur, cards);
        } else if c.is_control() {
            return Err(control_char(line, col, c));
        } else {
            let end = from + at + c.len_utf8();
            match &mut cur {
                Some((bytes, span)) => {
                    bytes.end = end;
                    span.len += 1;
                }
                None => cur = Some((from + at..end, Span::new(line, col, 1))),
            }
        }
    }
    flush(&mut cur, cards);
    cards.close_line(mark, continuation);
    Ok(next)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts<'s>(cards: &Cards<'s>) -> Vec<Vec<&'s str>> {
        (0..cards.len())
            .map(|i| cards.card(i).iter().map(|t| t.text).collect())
            .collect()
    }

    #[test]
    fn splits_tokens_and_merges_continuations() {
        let cards = lex_from("R1 a b 5k\n+ 10 20\nC1 x 0 1p ; trailing\n", 2).unwrap();
        assert_eq!(
            texts(&cards),
            vec![
                vec!["R1", "a", "b", "5k", "10", "20"],
                vec!["C1", "x", "0", "1p"],
            ]
        );
        // Continued tokens keep their physical line.
        assert_eq!(cards.card(0)[4].span.line, 3);
        assert_eq!(cards.card(0)[0].span, Span::new(2, 1, 2));
    }

    #[test]
    fn comments_and_separators() {
        let cards = lex_from("* full comment\nV1 in 0 PULSE(0, 1.8) AC=1\n", 10).unwrap();
        assert_eq!(
            texts(&cards),
            vec![vec!["V1", "in", "0", "PULSE", "0", "1.8", "AC", "1"]]
        );
    }

    #[test]
    fn orphan_continuation_is_typed() {
        let err = lex_from("+ 1 2 3\n", 2).unwrap_err();
        assert!(matches!(err, NetlistError::Lex { .. }));
        assert!(err.span().is_valid());
    }

    #[test]
    fn control_chars_are_typed() {
        let err = lex_from("R1 a\u{0007} b 5\n", 2).unwrap_err();
        assert!(matches!(err, NetlistError::Lex { .. }));
        assert_eq!(err.span().line, 2);
    }

    #[test]
    fn non_ascii_lines_count_chars() {
        // U+00A0 separates like a space; `é` is one column wide; the
        // continuation's tokens follow the ASCII card's in one range.
        let cards = lex_from("R1 a\u{a0}né 5\n+ \u{2028}x\n\x0bC1 y 0 1\n", 2).unwrap();
        assert_eq!(
            texts(&cards),
            vec![vec!["R1", "a", "né", "5", "x"], vec!["C1", "y", "0", "1"]]
        );
        assert_eq!(cards.card(0)[2].span, Span::new(2, 6, 2));
        assert_eq!(cards.card(0)[3].span, Span::new(2, 9, 1));
        assert_eq!(cards.card(0)[4].span, Span::new(3, 4, 1));
        assert_eq!(cards.card(1)[0].span, Span::new(4, 2, 2));
        let err = lex_from("R1 a\u{9b} b 5\n", 2).unwrap_err();
        assert_eq!(err.span(), Span::new(2, 5, 1));
    }

    /// Every token is a slice of the source buffer, not a copy.
    #[test]
    fn tokens_borrow_the_source() {
        let src = include_str!("../../../tests/decks/table1_clock_net.cir");
        let cards = lex_from(src, 1).unwrap();
        assert!(cards.len() > 2_000);
        let buf = src.as_bytes().as_ptr_range();
        for t in (0..cards.len()).flat_map(|i| cards.card(i)) {
            let tok = t.text.as_bytes().as_ptr_range();
            assert!(buf.start <= tok.start && tok.end <= buf.end, "{t:?}");
        }
    }
}
