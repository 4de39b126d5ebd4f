//! Corpus-driven fuzzer for the deck and job-file front end.
//!
//! Dependency-free (hand-rolled SplitMix64): mutates a seed corpus of
//! valid decks and job files, runs each input through the full
//! pipeline (`parse → flatten → lower`, or `jobs_from_str`), and
//! asserts the crate's hardening contract:
//!
//! 1. no panic, ever (checked under `catch_unwind`);
//! 2. every rejection is a typed [`NetlistError`] whose
//!    [`Span`](ind101_netlist::Span) points at a real line/column
//!    (`is_valid()`).
//!
//! ```text
//! cargo run -p ind101-netlist --bin fuzz_netlist -- --iters 20000
//! ```
//!
//! Flags: `--iters N` (default 20000), `--seed S` (default 0x1ND101),
//! `--max-ms M` wall-clock box for CI (default unlimited). On failure
//! the offending input is dumped and the process exits 1.

use ind101_netlist::{flatten, jobs_from_str, lower_flat, parse_deck, NetlistError};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Deterministic 64-bit generator (SplitMix64): tiny, seedable, and
/// good enough for byte-level mutation schedules.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.next() % n as u64) as usize
        }
    }
}

/// Valid inputs the mutator starts from; chosen to cover every card
/// kind, subckt nesting, couplings, continuations, comments, and both
/// job-file syntaxes.
const CORPUS: &[&str] = &[
    "rc divider\nV1 in 0 DC 1\nR1 in out 1k\nR2 out 0 1k\n.OP\n.END\n",
    "coupled\nL1 a 0 1n\nL2 b 0 4n\nK1 L1 L2 0.6\nI1 0 a DC 1m AC 1\n.AC DEC 10 1e8 1e10\n",
    "subckts\n.SUBCKT seg a b\nR1 a mid 10\nL1 mid b 1nH\n.ENDS\nX1 in m seg\nX2 m 0 seg\nV1 in 0 PULSE(0 1.8 1p 10p) \n+ AC 1\n.TRAN 1p 1n\n.END\n",
    "nested\n.SUBCKT leaf p\nC1 p 0 1p\n.ENDS\n.SUBCKT pair q\nX1 q leaf\nX2 inner leaf\n.ENDS\nX0 top pair\n* comment\nR1 top 0 50 ; trailer\n.OP\n",
    "suffix zoo\nR1 a 0 2.5MEG\nC1 a 0 30fF\nL1 a 0 1mil\nV1 a 0 DC 5k\n.OP\n",
    "pwl\nI1 0 n PWL(0 0 1n 1m 2n 0)\nR1 n 0 50\n.TRAN 10p 2n\n",
    "{\"threads\": 2, \"jobs\": [{\"name\": \"d\", \"kind\": \"deck\", \"deck\": \"t\\nR1 a 0 1\\n.OP\\n\", \"backend\": \"sparse\", \"policy\": \"skip\"}]}",
    "threads = 2\n\n[[jobs]]\nname = \"bus\"\nkind = \"loop_bus\"\nsignals = 2\nlength_nm = 500000\nspacing_nm = 1000\nfreqs_hz = [1e9]\n",
];

/// Applies one random mutation. Mutations are byte-level on purpose:
/// the lexer must survive arbitrary (even non-UTF-8-safe) splices, so
/// we re-validate and lossily repair the result.
fn mutate(rng: &mut Rng, input: &str) -> String {
    let mut bytes = input.as_bytes().to_vec();
    match rng.below(7) {
        // Flip a byte.
        0 if !bytes.is_empty() => {
            let i = rng.below(bytes.len());
            bytes[i] ^= 1 << rng.below(8);
        }
        // Truncate.
        1 if !bytes.is_empty() => {
            bytes.truncate(rng.below(bytes.len()));
        }
        // Duplicate a slice.
        2 if !bytes.is_empty() => {
            let a = rng.below(bytes.len());
            let b = a + rng.below(bytes.len() - a);
            let slice = bytes[a..b].to_vec();
            let at = rng.below(bytes.len());
            bytes.splice(at..at, slice);
        }
        // Splice from another corpus entry.
        3 => {
            let other = CORPUS[rng.below(CORPUS.len())].as_bytes();
            let a = rng.below(other.len());
            let b = a + rng.below(other.len() - a);
            let at = rng.below(bytes.len() + 1);
            bytes.splice(at..at, other[a..b].iter().copied());
        }
        // Insert a structural character.
        4 => {
            let structural = b"()=,+.*;\"[]{}\n\t 0123456789eE-";
            let at = rng.below(bytes.len() + 1);
            bytes.insert(at, structural[rng.below(structural.len())]);
        }
        // Tweak a digit (shifts values, breaks arities).
        5 => {
            let digits: Vec<usize> = bytes
                .iter()
                .enumerate()
                .filter(|(_, b)| b.is_ascii_digit())
                .map(|(i, _)| i)
                .collect();
            if !digits.is_empty() {
                let i = digits[rng.below(digits.len())];
                bytes[i] = b'0' + (rng.next() % 10) as u8;
            }
        }
        // Case-flip a region (keywords are case-insensitive, node
        // names are not — both paths must stay consistent).
        _ => {
            for b in &mut bytes {
                if b.is_ascii_alphabetic() && rng.below(4) == 0 {
                    *b ^= 0x20;
                }
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Runs one input through the full pipeline; returns the typed error
/// (if any) for the span check.
fn run_one(input: &str) -> Option<NetlistError> {
    if input.trim_start().starts_with('{') || input.contains("[[jobs]]") {
        return jobs_from_str(input).err();
    }
    let deck = match parse_deck(input) {
        Ok(d) => d,
        Err(e) => return Some(e),
    };
    let flat = match flatten(&deck) {
        Ok(f) => f,
        Err(e) => return Some(e),
    };
    lower_flat(&flat).err()
}

fn main() {
    let mut iters: u64 = 20_000;
    let mut seed: u64 = 0x101_D101;
    let mut max_ms: Option<u64> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let take = |v: Option<&String>, what: &str| -> u64 {
            v.and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                eprintln!("fuzz_netlist: bad value for {what}");
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--iters" => {
                iters = take(args.get(i + 1), "--iters");
                i += 2;
            }
            "--seed" => {
                seed = take(args.get(i + 1), "--seed");
                i += 2;
            }
            "--max-ms" => {
                max_ms = Some(take(args.get(i + 1), "--max-ms"));
                i += 2;
            }
            other => {
                eprintln!("fuzz_netlist: unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    // Keep panics quiet while fuzzing; catch_unwind reports them.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let mut rng = Rng(seed);
    let start = std::time::Instant::now();
    let mut executed: u64 = 0;
    let mut rejected: u64 = 0;
    for n in 0..iters {
        if let Some(ms) = max_ms {
            if start.elapsed().as_millis() as u64 >= ms {
                break;
            }
        }
        // Stack 1..=4 mutations on a corpus seed.
        let mut input = CORPUS[rng.below(CORPUS.len())].to_owned();
        for _ in 0..(1 + rng.below(4)) {
            input = mutate(&mut rng, &input);
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| run_one(&input)));
        executed += 1;
        match outcome {
            Err(_) => {
                std::panic::set_hook(default_hook);
                eprintln!("fuzz_netlist: PANIC at iteration {n} (seed {seed})");
                eprintln!("---- input ----\n{input}\n---------------");
                std::process::exit(1);
            }
            Ok(Some(err)) => {
                rejected += 1;
                if !err.span().is_valid() {
                    eprintln!(
                        "fuzz_netlist: rejection without a valid span at iteration {n} \
                         (seed {seed}): {err}"
                    );
                    eprintln!("---- input ----\n{input}\n---------------");
                    std::process::exit(1);
                }
            }
            Ok(None) => {}
        }
    }
    std::panic::set_hook(default_hook);
    println!(
        "fuzz_netlist: {executed} inputs, {rejected} typed rejections, \
         {accepted} accepted, {:.2}s (seed {seed})",
        start.elapsed().as_secs_f64(),
        accepted = executed - rejected,
    );
}
