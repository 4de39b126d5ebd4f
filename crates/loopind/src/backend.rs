//! Extraction backend selection: dense-stamped vs matrix-free AC path.
//!
//! Mirrors the circuit engine's `SolverBackend`/`IND101_SOLVER_BACKEND`
//! pattern at the extraction level: `Dense` is the reference oracle
//! (every `−jωM` stamped, direct factorization), `MatrixFree` routes
//! the partial-inductance block through an FFT-accelerated
//! `LinearOperator` with preconditioned GMRES, and `Auto` picks by
//! filament count — honouring the `IND101_EXTRACTION_BACKEND`
//! environment variable so CI can force either family suite-wide.
//!
//! Unlike `IND101_SOLVER_BACKEND` (where an invalid value silently
//! falls back to the heuristic), an invalid
//! `IND101_EXTRACTION_BACKEND` value is a **typed error**: the matrix-
//! free path changes solution arithmetic (iterative, tolerance-gated),
//! so a typo'd override must fail loudly rather than silently run the
//! other backend.

use ind101_circuit::CircuitError;
use ind101_numeric::{Complex64, SolveBudget};

/// Name of the environment override consulted by
/// [`ExtractionBackend::Auto`].
pub const EXTRACTION_BACKEND_ENV: &str = "IND101_EXTRACTION_BACKEND";

/// Filament count at and above which `Auto` prefers the matrix-free
/// path. Below it dense assembly + direct factorization is both faster
/// and bit-identical to the historical results; above it the O(n²)
/// stamps and O(n³) factorizations start to dominate.
pub const AUTO_MATRIX_FREE_THRESHOLD: usize = 2048;

/// Which extraction path the loop R(f)/L(f) sweep uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExtractionBackend {
    /// Stamp the full partial-inductance matrix and solve directly
    /// (the differential oracle).
    Dense,
    /// Apply the partial-inductance block matrix-free (FFT operator on
    /// regular grids, dense matvec otherwise) with preconditioned
    /// GMRES per frequency.
    MatrixFree,
    /// Choose by problem size; honours [`EXTRACTION_BACKEND_ENV`].
    #[default]
    Auto,
}

impl ExtractionBackend {
    /// Parses a backend name (case-insensitive): `dense`,
    /// `matrix-free` (also `matrixfree` / `matrix_free`), `auto`.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "dense" => Some(Self::Dense),
            "matrix-free" | "matrixfree" | "matrix_free" => Some(Self::MatrixFree),
            "auto" => Some(Self::Auto),
            _ => None,
        }
    }

    /// Backend requested by [`EXTRACTION_BACKEND_ENV`].
    ///
    /// Returns `Ok(None)` when the variable is unset.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidOptions`] when the variable is set to a
    /// value [`ExtractionBackend::parse`] does not accept.
    pub fn from_env() -> Result<Option<Self>, CircuitError> {
        match std::env::var(EXTRACTION_BACKEND_ENV) {
            Err(_) => Ok(None),
            Ok(v) => match Self::parse(&v) {
                Some(b) => Ok(Some(b)),
                None => Err(CircuitError::InvalidOptions {
                    what: format!(
                        "{EXTRACTION_BACKEND_ENV}={v:?} is not a valid extraction backend \
                         (expected dense | matrix-free | auto)"
                    ),
                }),
            },
        }
    }

    /// Resolves `Auto` for a problem with `n_filaments` inductive
    /// filaments: an explicit choice wins; `Auto` defers to the
    /// environment, then to the size heuristic
    /// ([`AUTO_MATRIX_FREE_THRESHOLD`]).
    ///
    /// # Errors
    ///
    /// Propagates the invalid-environment error from
    /// [`ExtractionBackend::from_env`].
    pub fn resolve(self, n_filaments: usize) -> Result<Self, CircuitError> {
        let chosen = match self {
            Self::Auto => match Self::from_env()? {
                Some(Self::Auto) | None => {
                    if n_filaments >= AUTO_MATRIX_FREE_THRESHOLD {
                        Self::MatrixFree
                    } else {
                        Self::Dense
                    }
                }
                Some(forced) => forced,
            },
            forced => forced,
        };
        Ok(chosen)
    }

    /// [`ExtractionBackend::resolve`] gated by a memory budget: when
    /// the resolution lands on the dense path but stamping the
    /// `n × n` complex partial-inductance block would exceed
    /// `budget.max_memory_bytes`, the resolution is **refused with a
    /// typed error** instead of letting the allocator abort the
    /// process. `Auto` is refused rather than silently rerouted to
    /// matrix-free because the matrix-free fallback for irregular
    /// filament sets materializes the same dense block for its matvec
    /// — rerouting would just move the OOM, not avoid it.
    ///
    /// # Errors
    ///
    /// [`CircuitError::BudgetExceeded`] when the dense block does not
    /// fit the budget; plus everything [`ExtractionBackend::resolve`]
    /// returns.
    pub fn resolve_with_budget(
        self,
        n_filaments: usize,
        budget: &SolveBudget,
    ) -> Result<Self, CircuitError> {
        let chosen = self.resolve(n_filaments)?;
        if chosen == Self::Dense {
            let needed = n_filaments
                .saturating_mul(n_filaments)
                .saturating_mul(std::mem::size_of::<Complex64>());
            if let Err(e) = budget.check_alloc(needed) {
                return Err(CircuitError::BudgetExceeded {
                    what: format!(
                        "dense extraction path needs a {n_filaments}×{n_filaments} \
                         complex partial-inductance block: {e}"
                    ),
                });
            }
        }
        Ok(chosen)
    }

    /// Stable lowercase name (bench/report output).
    pub fn name(self) -> &'static str {
        match self {
            Self::Dense => "dense",
            Self::MatrixFree => "matrix-free",
            Self::Auto => "auto",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_aliases_and_rejects_noise() {
        assert_eq!(ExtractionBackend::parse("dense"), Some(ExtractionBackend::Dense));
        assert_eq!(ExtractionBackend::parse(" MATRIX-FREE "), Some(ExtractionBackend::MatrixFree));
        assert_eq!(ExtractionBackend::parse("matrixfree"), Some(ExtractionBackend::MatrixFree));
        assert_eq!(ExtractionBackend::parse("matrix_free"), Some(ExtractionBackend::MatrixFree));
        assert_eq!(ExtractionBackend::parse("Auto"), Some(ExtractionBackend::Auto));
        assert_eq!(ExtractionBackend::parse("fft"), None);
        assert_eq!(ExtractionBackend::parse(""), None);
    }

    #[test]
    fn explicit_backend_wins_over_size() {
        assert_eq!(
            ExtractionBackend::Dense.resolve(1_000_000).unwrap(),
            ExtractionBackend::Dense
        );
        assert_eq!(
            ExtractionBackend::MatrixFree.resolve(2).unwrap(),
            ExtractionBackend::MatrixFree
        );
    }

    #[test]
    fn budget_refuses_dense_with_typed_error() {
        // 64 filaments → 64·64·16 = 65 536 bytes of dense block.
        let tight = SolveBudget::unlimited().with_memory_bytes(1024);
        let err = ExtractionBackend::Dense
            .resolve_with_budget(64, &tight)
            .unwrap_err();
        assert!(
            matches!(err, CircuitError::BudgetExceeded { .. }),
            "expected BudgetExceeded, got {err:?}"
        );
        // Matrix-free never stamps the dense block, so it passes.
        assert_eq!(
            ExtractionBackend::MatrixFree
                .resolve_with_budget(64, &tight)
                .unwrap(),
            ExtractionBackend::MatrixFree
        );
        // `Auto` is gated like whatever it resolves to, which
        // `IND101_EXTRACTION_BACKEND` may force either way.
        let auto = ExtractionBackend::Auto.resolve(64).unwrap();
        let gated = ExtractionBackend::Auto.resolve_with_budget(64, &tight);
        match auto {
            ExtractionBackend::Dense => assert!(
                matches!(gated, Err(CircuitError::BudgetExceeded { .. })),
                "expected BudgetExceeded, got {gated:?}"
            ),
            _ => assert_eq!(gated.unwrap(), ExtractionBackend::MatrixFree),
        }
        // A roomy budget keeps the normal resolution.
        let roomy = SolveBudget::unlimited().with_memory_bytes(1 << 20);
        assert_eq!(
            ExtractionBackend::Auto
                .resolve_with_budget(64, &roomy)
                .unwrap(),
            auto
        );
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(ExtractionBackend::Dense.name(), "dense");
        assert_eq!(ExtractionBackend::MatrixFree.name(), "matrix-free");
        assert_eq!(ExtractionBackend::Auto.name(), "auto");
    }
}
