//! Deck abstract syntax.
//!
//! Element, instance and subcircuit names are case-folded to upper
//! case by the parser (SPICE treats them case-insensitively); node
//! names are preserved verbatim so decks exported from a
//! [`ind101_circuit::Circuit`] keep its exact node labels.
//!
//! Every string is a [`Cow`] over the deck text `'src`: the parser
//! borrows each name and node straight from the source and owns a
//! string only where it had to build one — a name with a lowercase
//! ASCII letter, upper-cased, or a scoped `X1.R2` / `X1.mid` made by
//! [`crate::flatten()`]. A deck that did not come from text (see
//! [`crate::deck_from_circuit`]) owns everything and is `Deck<'static>`.

use crate::span::Span;
use std::borrow::Cow;

/// A parsed deck: the (free-text) title line plus its cards in source
/// order.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Deck<'src> {
    /// First line of the file, verbatim (SPICE's mandatory title card).
    pub title: Cow<'src, str>,
    /// Cards in source order.
    pub stmts: Vec<Stmt<'src>>,
}

/// One card.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt<'src> {
    /// A primitive element (`R`/`C`/`L`/`K`/`V`/`I`).
    Element(ElementStmt<'src>),
    /// An `X` subcircuit instance.
    Instance(InstanceStmt<'src>),
    /// A `.SUBCKT` … `.ENDS` definition.
    Subckt(SubcktDef<'src>),
    /// An analysis card (`.OP`, `.AC`, `.TRAN`).
    Analysis(AnalysisCard),
}

/// A primitive element card.
#[derive(Clone, Debug, PartialEq)]
pub struct ElementStmt<'src> {
    /// Element name, upper-cased (`R1`, `LS0_3`, …).
    pub name: Cow<'src, str>,
    /// Position of the card.
    pub span: Span,
    /// What the element is.
    pub kind: ElementKind<'src>,
}

/// Element payloads. Node references are names; lowering interns them.
#[derive(Clone, Debug, PartialEq)]
pub enum ElementKind<'src> {
    /// `Rname a b ohms`.
    Resistor {
        /// First node.
        a: Cow<'src, str>,
        /// Second node.
        b: Cow<'src, str>,
        /// Resistance, ohms.
        ohms: f64,
    },
    /// `Cname a b farads`.
    Capacitor {
        /// First node.
        a: Cow<'src, str>,
        /// Second node.
        b: Cow<'src, str>,
        /// Capacitance, farads.
        farads: f64,
    },
    /// `Lname a b henries`.
    Inductor {
        /// First node.
        a: Cow<'src, str>,
        /// Second node.
        b: Cow<'src, str>,
        /// Self inductance, henries.
        henries: f64,
    },
    /// `Kname L1 L2 k` — mutual coupling between two inductors.
    Coupling {
        /// First coupled inductor's element name (upper-cased).
        l1: Cow<'src, str>,
        /// Second coupled inductor's element name (upper-cased).
        l2: Cow<'src, str>,
        /// Coupling coefficient, |k| < 1.
        k: f64,
    },
    /// `Vname n+ n- <source>`.
    Vsrc {
        /// Positive terminal.
        plus: Cow<'src, str>,
        /// Negative terminal.
        minus: Cow<'src, str>,
        /// Waveform and AC magnitude.
        source: SourceSpec,
    },
    /// `Iname n+ n- <source>` — positive current flows out of `n+`
    /// through the source into `n-` (the SPICE convention).
    Isrc {
        /// Node the current leaves.
        plus: Cow<'src, str>,
        /// Node the current enters.
        minus: Cow<'src, str>,
        /// Waveform and AC magnitude.
        source: SourceSpec,
    },
}

/// Independent-source specification: a time-domain waveform plus an
/// optional small-signal AC magnitude.
#[derive(Clone, Debug, PartialEq)]
pub struct SourceSpec {
    /// Time-domain waveform (defaults to `DC 0`).
    pub wave: WaveSpec,
    /// `AC <mag>` small-signal magnitude, if given.
    pub ac_mag: Option<f64>,
}

/// Source waveforms (mirrors [`ind101_circuit::SourceWave`]).
#[derive(Clone, Debug, PartialEq)]
pub enum WaveSpec {
    /// Constant value.
    Dc(f64),
    /// `PULSE(v0 v1 delay rise fall width period)`; trailing fields
    /// optional (fall defaults to rise, width/period to `inf`).
    Pulse {
        /// Initial value.
        v0: f64,
        /// Pulsed value.
        v1: f64,
        /// Delay before the first edge, seconds.
        delay: f64,
        /// Rise time, seconds.
        rise: f64,
        /// Fall time, seconds.
        fall: f64,
        /// Width at `v1`, seconds (`inf` for a single step).
        width: f64,
        /// Repetition period, seconds (`inf` for a single pulse).
        period: f64,
    },
    /// `PWL(t1 v1 t2 v2 …)` piecewise-linear knots.
    Pwl(Vec<(f64, f64)>),
}

/// An `X` instance card: `Xname n1 … nK subname`.
#[derive(Clone, Debug, PartialEq)]
pub struct InstanceStmt<'src> {
    /// Instance name, upper-cased (`X1`).
    pub name: Cow<'src, str>,
    /// Position of the card.
    pub span: Span,
    /// Connection nodes, in port order.
    pub nodes: Vec<Cow<'src, str>>,
    /// Referenced subcircuit name, upper-cased.
    pub subckt: Cow<'src, str>,
}

/// A `.SUBCKT name p1 … pK` … `.ENDS` definition. Bodies hold only
/// elements and instances (analysis cards and nested definitions are
/// parse errors).
#[derive(Clone, Debug, PartialEq)]
pub struct SubcktDef<'src> {
    /// Definition name, upper-cased.
    pub name: Cow<'src, str>,
    /// Position of the `.SUBCKT` card.
    pub span: Span,
    /// Port (interface node) names.
    pub ports: Vec<Cow<'src, str>>,
    /// Body cards.
    pub body: Vec<Stmt<'src>>,
}

/// `.AC` sweep spacing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AcSweep {
    /// `DEC n fstart fstop` — n points per decade, log-spaced.
    Dec,
    /// `LIN n fstart fstop` — n points total, linearly spaced.
    Lin,
}

/// An analysis request.
#[derive(Clone, Debug, PartialEq)]
pub enum AnalysisCard {
    /// `.OP` — DC operating point.
    Op {
        /// Position of the card.
        span: Span,
    },
    /// `.AC DEC|LIN n fstart fstop`.
    Ac {
        /// Position of the card.
        span: Span,
        /// Point spacing.
        sweep: AcSweep,
        /// Points (per decade for `DEC`, total for `LIN`).
        points: usize,
        /// Sweep start frequency, hertz.
        fstart: f64,
        /// Sweep stop frequency, hertz.
        fstop: f64,
    },
    /// `.TRAN tstep tstop`.
    Tran {
        /// Position of the card.
        span: Span,
        /// Output/base timestep, seconds.
        tstep: f64,
        /// Stop time, seconds.
        tstop: f64,
    },
}

impl AnalysisCard {
    /// Position of the card.
    pub fn span(&self) -> Span {
        match self {
            Self::Op { span } | Self::Ac { span, .. } | Self::Tran { span, .. } => *span,
        }
    }
}
