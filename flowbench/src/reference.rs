//! Checked outputs and the golden reference file they are compared
//! against.
//!
//! `reference.json` holds the seed-1 outputs of every workload in the
//! repository's golden format, `{"key": [value, rtol], ...}`, with keys
//! prefixed by the workload name. Seed 1 is compared key by key; other
//! seeds are checked against physical invariants instead, and every
//! seed must repeat its own first iteration exactly.

use ind101_netlist::{parse_json, Value};
use std::collections::BTreeMap;

/// Relative tolerance for a computed physical value (delay, loop R/L,
/// retention, matrix error, eigenvalue): loose enough to absorb libm
/// differences, tight enough to catch any modelling or solver change.
pub const VALUE_RTOL: f64 = 1e-6;

/// Tolerance for a count or a verdict: it must match exactly.
pub const EXACT_RTOL: f64 = 0.0;

/// The seed whose outputs are compared against `reference.json`.
pub const CANONICAL_SEED: u64 = 1;

/// The committed reference values.
pub const REFERENCE_JSON: &str = include_str!("../reference.json");

/// One checked output of a workload iteration.
#[derive(Clone, Debug, PartialEq)]
pub struct Output {
    /// Key, without the workload prefix.
    pub key: String,
    /// Value.
    pub value: f64,
    /// Tolerance stored on regeneration.
    pub rtol: f64,
}

/// A computed physical value, compared with [`VALUE_RTOL`].
#[must_use]
pub fn val(key: impl Into<String>, value: f64) -> Output {
    Output {
        key: key.into(),
        value,
        rtol: VALUE_RTOL,
    }
}

/// A count or verdict, compared exactly.
#[must_use]
pub fn exact(key: impl Into<String>, value: f64) -> Output {
    Output {
        key: key.into(),
        value,
        rtol: EXACT_RTOL,
    }
}

/// Parsed reference: `key → (value, rtol)`.
pub type Reference = BTreeMap<String, (f64, f64)>;

/// Parses the golden format.
///
/// # Errors
///
/// A message naming the malformed entry.
pub fn parse_reference(text: &str) -> Result<Reference, String> {
    let root = parse_json(text).map_err(|e| format!("reference: {e}"))?;
    let Value::Obj(map) = root else {
        return Err("reference: top level must be an object".to_owned());
    };
    let mut out = Reference::new();
    for (key, v) in map {
        let pair = v
            .as_arr()
            .and_then(|a| Some((a.first()?.as_num()?, a.get(1)?.as_num()?)))
            .ok_or_else(|| format!("reference: `{key}` must be [value, rtol]"))?;
        out.insert(key, pair);
    }
    Ok(out)
}

/// Renders the golden format, one key per line, in key order.
#[must_use]
pub fn render_reference(r: &Reference) -> String {
    let rows: Vec<String> = r
        .iter()
        .map(|(k, (v, t))| format!("  \"{k}\": [{v:e}, {t:e}]"))
        .collect();
    format!("{{\n{}\n}}\n", rows.join(",\n"))
}

/// Relative deviation of `got` from `want` (absolute when `want` is 0;
/// infinite when either is not a number).
#[must_use]
pub fn rel_err(got: f64, want: f64) -> f64 {
    if got == want {
        return 0.0;
    }
    let d = (got - want).abs();
    let e = if want == 0.0 { d } else { d / want.abs() };
    if e.is_nan() {
        f64::INFINITY
    } else {
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_round_trips() {
        let mut r = Reference::new();
        r.insert("a.x".to_owned(), (1.25e-11, VALUE_RTOL));
        r.insert("a.n".to_owned(), (2074.0, EXACT_RTOL));
        assert_eq!(parse_reference(&render_reference(&r)).unwrap(), r);
    }

    #[test]
    fn committed_reference_parses() {
        let r = parse_reference(REFERENCE_JSON).unwrap();
        assert!(r.keys().any(|k| k.starts_with("table1_peec.")));
    }

    #[test]
    fn rel_err_edges() {
        assert_eq!(rel_err(1.0, 1.0), 0.0);
        assert_eq!(rel_err(2.0, 0.0), 2.0);
        assert_eq!(rel_err(f64::NAN, 1.0), f64::INFINITY);
        assert!((rel_err(1.1, 1.0) - 0.1).abs() < 1e-12);
    }
}
