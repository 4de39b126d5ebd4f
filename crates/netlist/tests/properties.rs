//! Property-based tests for the deck front end.
//!
//! Three families of invariants, each over generated inputs rather
//! than hand-picked cases:
//!
//! 1. **Round trip**: for any generated deck, `print ∘ parse` is a
//!    fixed point and every value survives bit-exactly.
//! 2. **Engineering suffixes**: for any mantissa and scale, the
//!    suffixed spelling parses to the same bits as the plain
//!    scientific spelling.
//! 3. **Flattening**: for any generated hierarchy, element/node
//!    counts match the closed form, names are unique, and no
//!    coupling reference dangles.

use ind101_netlist::{
    flatten, parse_deck, parse_value, print_deck, ElementKind, Span, Stmt,
};
use proptest::prelude::*;

/// A generated deck built from a small element soup plus one subckt
/// instantiated a few times. Returns deck text.
fn deck_strategy() -> impl Strategy<Value = String> {
    (
        1usize..5,  // resistors at top level
        0usize..4,  // capacitors at top level
        0usize..3,  // coupled inductor pairs at top level
        0usize..4,  // instances of the subckt
        1usize..4,  // elements inside the subckt
        0u64..1000, // value seed
    )
        .prop_map(|(nr, nc, nk, nx, nsub, vseed)| {
            let mut s = String::from("generated deck\n");
            let val = |i: u64| {
                // Spread values over decades, none degenerate.
                let m = 1.0 + (vseed.wrapping_add(i) % 89) as f64 / 10.0;
                let e = (vseed.wrapping_mul(31).wrapping_add(i) % 24) as i32 - 12;
                format!("{m}e{e}")
            };
            for i in 0..nr {
                s += &format!("R{i} n{i} n{} {}\n", i + 1, val(i as u64));
            }
            for i in 0..nc {
                s += &format!("C{i} n{i} 0 {}\n", val(100 + i as u64));
            }
            for i in 0..nk {
                s += &format!("L{}a na{i} 0 {}\n", i, val(200 + i as u64));
                s += &format!("L{}b nb{i} 0 {}\n", i, val(300 + i as u64));
                s += &format!("K{i} L{i}a L{i}b 0.{}\n", 1 + (vseed + i as u64) % 9);
            }
            s += ".SUBCKT CELL p q\n";
            for i in 0..nsub {
                s += &format!("R{i} p m{i} {}\n", val(400 + i as u64));
                s += &format!("C{i} m{i} q {}\n", val(500 + i as u64));
            }
            s += ".ENDS CELL\n";
            for i in 0..nx {
                s += &format!("X{i} n0 n{} CELL\n", i % 2);
            }
            s += "V0 n0 0 DC 1 AC 1\n.OP\n.AC DEC 3 1e8 1e10\n.END\n";
            s
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `print ∘ parse` is a fixed point on any generated deck, and a
    /// second round trip reproduces the identical AST (values
    /// bit-exact, names and structure preserved).
    #[test]
    fn print_parse_is_a_fixed_point(src in deck_strategy()) {
        let deck1 = parse_deck(&src).unwrap();
        let text1 = print_deck(&deck1);
        let deck2 = parse_deck(&text1).unwrap();
        let text2 = print_deck(&deck2);
        prop_assert_eq!(&text1, &text2, "printer not a fixed point");
        // ASTs agree except for source spans.
        prop_assert_eq!(deck1.stmts.len(), deck2.stmts.len());
        for (a, b) in deck1.stmts.iter().zip(&deck2.stmts) {
            if let (Stmt::Element(ea), Stmt::Element(eb)) = (a, b) {
                prop_assert_eq!(&ea.name, &eb.name);
                prop_assert_eq!(&ea.kind, &eb.kind);
            }
        }
    }

    /// A suffixed value (`{m}{suffix}`) parses to the identical bits
    /// as the plain scientific spelling with the suffix's exponent
    /// folded in — the exactness the differential suite relies on.
    #[test]
    fn suffix_equals_folded_exponent(
        mantissa_milli in 1u64..2_000_000,
        exp_in in 0usize..9,
        unit_trailer in proptest::bool::ANY,
    ) {
        const SUFFIXES: [(&str, i32); 9] = [
            ("MEG", 6), ("T", 12), ("G", 9), ("K", 3), ("M", -3),
            ("U", -6), ("N", -9), ("P", -12), ("F", -15),
        ];
        let m = mantissa_milli as f64 / 1000.0;
        let (suffix, exp) = SUFFIXES[exp_in];
        let trailer = if unit_trailer { "Hz" } else { "" };
        let spelled = format!("{m}{suffix}{trailer}");
        let folded = format!("{m}e{exp}");
        let span = Span::new(1, 1, spelled.len() as u32);
        let got = parse_value(&spelled, span).unwrap();
        let want: f64 = folded.parse().unwrap();
        prop_assert_eq!(
            got.to_bits(), want.to_bits(),
            "{} parsed to {:e}, want {:e}", spelled, got, want
        );
    }

    /// Flattening a generated hierarchy yields the closed-form element
    /// count, unique element names, fully scoped nodes, and coupling
    /// references that resolve to flattened inductor names.
    #[test]
    fn flatten_invariants(src in deck_strategy()) {
        let deck = parse_deck(&src).unwrap();
        let flat = flatten(&deck).unwrap();

        // Closed-form count: top-level elements + instances × body.
        let mut expected = 0usize;
        let mut body = 0usize;
        let mut instances = 0usize;
        for s in &deck.stmts {
            match s {
                Stmt::Element(_) => expected += 1,
                Stmt::Instance(_) => instances += 1,
                Stmt::Subckt(d) => body = d.body.len(),
                Stmt::Analysis(_) => {}
            }
        }
        prop_assert_eq!(flat.elements.len(), expected + instances * body);

        // Names are unique.
        let mut names: Vec<&str> = flat.elements.iter().map(|e| e.name.as_ref()).collect();
        names.sort_unstable();
        names.dedup();
        prop_assert_eq!(names.len(), flat.elements.len());

        // Every coupling reference resolves to a flattened inductor.
        let inductors: std::collections::HashSet<&str> = flat
            .elements
            .iter()
            .filter(|e| matches!(e.kind, ElementKind::Inductor { .. }))
            .map(|e| e.name.as_ref())
            .collect();
        for e in &flat.elements {
            if let ElementKind::Coupling { l1, l2, .. } = &e.kind {
                prop_assert!(inductors.contains(l1.as_ref()), "dangling {l1}");
                prop_assert!(inductors.contains(l2.as_ref()), "dangling {l2}");
            }
        }

        // Subckt-internal nodes are scoped: every node is either
        // referenced at top level or carries an instance prefix.
        for n in flat.node_names() {
            let scoped = n.contains('.');
            let top = src.lines().any(|l| {
                !l.starts_with('.') && l.split_whitespace().any(|t| t == n)
            });
            prop_assert!(scoped || top, "unscoped foreign node {n}");
        }
    }
}
