//! DC convergence-rescue ladder: policy, per-rung traces and report.
//!
//! Plain damped Newton on a stiff operating point can fail for two very
//! different reasons: the Jacobian is nearly singular far from the
//! solution (gmin-stepping fixes this by temporarily strengthening every
//! node's path to ground), or the solution is simply too far from the
//! starting point for the damped iteration to reach within its budget
//! (source-stepping fixes this by ramping the independent sources from
//! zero, dragging the solution along a homotopy path). Production SPICE
//! descendants run exactly this escalation; the ladder here is:
//!
//! 1. **plain** damped Newton (always attempted first — when it
//!    converges the result is bit-identical to the non-rescued path);
//! 2. **gmin-stepping**: solve with a large extra conductance from every
//!    node to ground, then relax it geometrically to zero, warm-starting
//!    each solve from the previous one;
//! 3. **source-stepping**: ramp all independent sources `α·u` from
//!    `α = 0` (trivial all-zero solution) to `α = 1`, with automatic
//!    bisection when a ramp step fails.
//!
//! Every attempt is recorded in a [`RescueReport`] so failures are
//! diagnosable and successes show what the operating point cost.

/// One rung of the rescue ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RescueRung {
    /// Plain damped Newton from the zero vector.
    PlainNewton,
    /// Gmin-stepping homotopy.
    GminStepping,
    /// Source-stepping homotopy.
    SourceStepping,
}

impl std::fmt::Display for RescueRung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::PlainNewton => write!(f, "plain-newton"),
            Self::GminStepping => write!(f, "gmin-stepping"),
            Self::SourceStepping => write!(f, "source-stepping"),
        }
    }
}

/// Configuration of the rescue ladder.
///
/// The default policy is **disabled** (plain Newton only), so every
/// existing call site keeps its exact pre-rescue behaviour; opt in with
/// [`RescuePolicy::full`] or by enabling individual rungs.
#[derive(Clone, Debug, PartialEq)]
pub struct RescuePolicy {
    /// Attempt gmin-stepping when plain Newton fails.
    pub gmin_stepping: bool,
    /// Attempt source-stepping when gmin-stepping fails (or is off).
    pub source_stepping: bool,
}

impl Default for RescuePolicy {
    fn default() -> Self {
        Self::disabled()
    }
}

impl RescuePolicy {
    /// Plain Newton only — no rescue rungs (the default).
    pub fn disabled() -> Self {
        Self {
            gmin_stepping: false,
            source_stepping: false,
        }
    }

    /// The full ladder: gmin-stepping, then source-stepping.
    pub fn full() -> Self {
        Self {
            gmin_stepping: true,
            source_stepping: true,
        }
    }

    /// Whether any rescue rung is enabled.
    pub fn any_enabled(&self) -> bool {
        self.gmin_stepping || self.source_stepping
    }
}

/// Trace of one rung's attempt.
#[derive(Clone, Debug, PartialEq)]
pub struct RungTrace {
    /// Which rung.
    pub rung: RescueRung,
    /// Whether the rung produced a converged operating point.
    pub converged: bool,
    /// Total Newton iterations spent in this rung.
    pub iterations: usize,
    /// Homotopy steps attempted (1 for plain Newton).
    pub steps: usize,
    /// Residual trajectory: for plain Newton the per-iteration update
    /// norms; for homotopy rungs the final update norm of each step.
    pub residuals: Vec<f64>,
}

/// Outcome of a rescued DC operating-point solve.
#[derive(Clone, Debug, PartialEq)]
pub struct RescueReport {
    /// The rung that produced the operating point.
    pub converged_by: RescueRung,
    /// Every rung attempted, in escalation order.
    pub rungs: Vec<RungTrace>,
    /// Total Newton iterations across all rungs.
    pub total_iterations: usize,
}

impl RescueReport {
    /// Whether the plain (non-rescued) path sufficed.
    pub fn plain_sufficed(&self) -> bool {
        self.converged_by == RescueRung::PlainNewton
    }

    /// One-line human summary for logs and bench tables.
    pub fn summary(&self) -> String {
        format!(
            "{} ({} rung(s), {} Newton iterations)",
            self.converged_by,
            self.rungs.len(),
            self.total_iterations
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_disabled() {
        let p = RescuePolicy::default();
        assert!(!p.any_enabled());
        assert_eq!(p, RescuePolicy::disabled());
        assert!(RescuePolicy::full().any_enabled());
    }

    #[test]
    fn report_summary_mentions_rung() {
        let r = RescueReport {
            converged_by: RescueRung::SourceStepping,
            rungs: vec![],
            total_iterations: 42,
        };
        assert!(r.summary().contains("source-stepping"));
        assert!(r.summary().contains("42"));
        assert!(!r.plain_sufficed());
    }
}
