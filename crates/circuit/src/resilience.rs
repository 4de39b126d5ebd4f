//! Shared types for resilient (partial-result) sweeps.
//!
//! Each solve family has one sweep: [`crate::Circuit::ac_sweep_resilient`]
//! for the direct solver and
//! [`crate::Circuit::ac_sweep_matrix_free_resilient`] for the Krylov
//! solver. [`crate::Circuit::ac_sweep`] is the direct sweep's strict call
//! ([`ResilienceOptions::strict`]), and the loop-extraction layer on top
//! speaks the same vocabulary: a [`FailurePolicy`] deciding what one bad
//! frequency does to the other 199, a [`ind101_numeric::SolveBudget`]
//! bounding wall-clock / memory / cancellation for the whole sweep, and a
//! [`RecoveryReport`] recording per-frequency what was attempted, which
//! rescue rung (if any) saved the solve, and what it cost.

use crate::ac::AcResult;
use crate::mna::MnaLayout;
use ind101_numeric::{Complex64, KrylovRescuePolicy, KrylovRescueRung, SolveBudget};
use std::fmt;

/// What a sweep does when one frequency point fails after the rescue
/// ladder is exhausted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Abort the whole sweep with the first typed error, in frequency
    /// order — the semantics of [`crate::Circuit::ac_sweep`].
    #[default]
    Abort,
    /// Record the failure in the [`RecoveryReport`] and continue with
    /// the remaining frequencies; the result holds every frequency
    /// that did solve.
    SkipAndReport,
    /// Like [`FailurePolicy::SkipAndReport`], but force-enable the
    /// dense-direct rescue rung so a failing frequency is first retried
    /// through a materialized direct solve (still refused, typed, when
    /// it would blow the memory budget).
    DegradeToDense,
}

impl fmt::Display for FailurePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Abort => write!(f, "abort"),
            Self::SkipAndReport => write!(f, "skip-and-report"),
            Self::DegradeToDense => write!(f, "degrade-to-dense"),
        }
    }
}

/// Configuration for a resilient sweep: rescue ladder, resource budget,
/// and per-frequency failure policy.
///
/// The default is the "resilience on" configuration: full rescue
/// ladder, unlimited budget, [`FailurePolicy::SkipAndReport`]. With no
/// fault it gives the same bits as [`ResilienceOptions::strict`], the
/// configuration of [`crate::Circuit::ac_sweep`].
#[derive(Clone, Debug, PartialEq)]
pub struct ResilienceOptions {
    /// Which Krylov rescue rungs may fire per frequency.
    pub rescue: KrylovRescuePolicy,
    /// Wall-clock / memory / cancellation budget for the whole sweep.
    pub budget: SolveBudget,
    /// What a post-ladder per-frequency failure does to the sweep.
    pub policy: FailurePolicy,
}

impl Default for ResilienceOptions {
    fn default() -> Self {
        Self {
            rescue: KrylovRescuePolicy::full(),
            budget: SolveBudget::unlimited(),
            policy: FailurePolicy::SkipAndReport,
        }
    }
}

impl ResilienceOptions {
    /// No rescue, no budget, abort on first failure — the configuration
    /// of [`crate::Circuit::ac_sweep`] and `extract_loop_rl`.
    #[must_use]
    pub fn strict() -> Self {
        Self {
            rescue: KrylovRescuePolicy::disabled(),
            budget: SolveBudget::unlimited(),
            policy: FailurePolicy::Abort,
        }
    }

    /// Default resilience with the given budget attached.
    #[must_use]
    pub fn with_budget(budget: SolveBudget) -> Self {
        Self {
            budget,
            ..Self::default()
        }
    }
}

/// Outcome of one frequency point in a resilient sweep.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum FrequencyStatus {
    /// Solved by the initial configuration — no rescue rung fired.
    Solved,
    /// Solved, but only after the rescue ladder escalated to `rung`
    /// (`DenseDirect` means the point was degraded to a dense solve).
    Rescued {
        /// The rung that converged.
        rung: KrylovRescueRung,
    },
    /// Failed after the ladder was exhausted; skipped per the policy.
    Skipped {
        /// Display form of the typed error that ended the ladder.
        error: String,
    },
    /// Never attempted: the sweep stopped (cancellation or exhausted
    /// budget) before reaching this frequency.
    NotAttempted,
}

impl FrequencyStatus {
    /// Whether this frequency produced a solution.
    #[must_use]
    pub fn solved(&self) -> bool {
        matches!(self, Self::Solved | Self::Rescued { .. })
    }
}

/// Telemetry for one frequency of a resilient sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct FrequencyRecovery {
    /// The frequency, hertz.
    pub freq_hz: f64,
    /// What happened.
    pub status: FrequencyStatus,
    /// Total matvecs / direct solves spent on this frequency across all
    /// rescue rungs.
    pub iterations: usize,
    /// Rescue rungs attempted (1 = initial only).
    pub rungs_attempted: usize,
    /// Rung trajectory with per-rung outcomes, e.g.
    /// `"initial(stagnated) -> grown-restart(converged)"`.
    pub trajectory: String,
    /// Wall-clock seconds spent on this frequency.
    pub elapsed_seconds: f64,
}

impl FrequencyRecovery {
    /// The record of a frequency the sweep stopped before reaching.
    pub(crate) fn not_attempted(freq_hz: f64) -> Self {
        Self {
            freq_hz,
            status: FrequencyStatus::NotAttempted,
            iterations: 0,
            rungs_attempted: 0,
            trajectory: String::new(),
            elapsed_seconds: 0.0,
        }
    }
}

/// What a resilient sweep did, frequency by frequency.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryReport {
    /// One record per requested frequency, in request order.
    pub frequencies: Vec<FrequencyRecovery>,
    /// Why the sweep stopped early, if it did (cancellation or an
    /// exhausted sweep-wide budget).
    pub stopped: Option<String>,
}

impl RecoveryReport {
    /// Frequencies solved (with or without rescue).
    #[must_use]
    pub fn solved_count(&self) -> usize {
        self.frequencies.iter().filter(|r| r.status.solved()).count()
    }

    /// Frequencies that needed at least one rescue rung.
    #[must_use]
    pub fn rescued_count(&self) -> usize {
        self.frequencies
            .iter()
            .filter(|r| matches!(r.status, FrequencyStatus::Rescued { .. }))
            .count()
    }

    /// Frequencies skipped after ladder exhaustion.
    #[must_use]
    pub fn skipped_count(&self) -> usize {
        self.frequencies
            .iter()
            .filter(|r| matches!(r.status, FrequencyStatus::Skipped { .. }))
            .count()
    }

    /// Frequencies the sweep never reached.
    #[must_use]
    pub fn not_attempted_count(&self) -> usize {
        self.frequencies
            .iter()
            .filter(|r| matches!(r.status, FrequencyStatus::NotAttempted))
            .count()
    }

    /// Whether every requested frequency solved with no rescue.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.stopped.is_none()
            && self
                .frequencies
                .iter()
                .all(|r| matches!(r.status, FrequencyStatus::Solved))
    }

    /// One-line human summary:
    /// `"198/200 solved (2 rescued, 1 skipped, 1 not attempted)"`.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{}/{} solved ({} rescued, {} skipped, {} not attempted)",
            self.solved_count(),
            self.frequencies.len(),
            self.rescued_count(),
            self.skipped_count(),
            self.not_attempted_count()
        );
        if let Some(why) = &self.stopped {
            s.push_str("; stopped early: ");
            s.push_str(why);
        }
        s
    }
}

/// A resilient AC sweep's partial result: the solutions that were
/// obtained plus the per-frequency telemetry.
///
/// `ac` holds **only the frequencies that solved** (its `freqs_hz` is
/// the solved subset of the request, in order); consult
/// [`RecoveryReport::frequencies`] for the fate of every requested
/// point.
#[derive(Clone, Debug)]
pub struct ResilientAcSweep {
    /// Solutions for the solved frequencies.
    pub ac: AcResult,
    /// Per-frequency outcomes for the full request.
    pub report: RecoveryReport,
}

impl ResilientAcSweep {
    /// Splits a sweep's per-frequency outcomes — each record with its
    /// solution, if it solved, in request order — into the solved
    /// frequencies' [`AcResult`] and the report of the whole request.
    pub(crate) fn from_outcomes(
        outcomes: Vec<(FrequencyRecovery, Option<Vec<Complex64>>)>,
        layout: MnaLayout,
        stopped: Option<String>,
    ) -> Self {
        let mut freqs = Vec::new();
        let mut data = Vec::new();
        let mut frequencies = Vec::with_capacity(outcomes.len());
        for (rec, sol) in outcomes {
            if let Some(x) = sol {
                freqs.push(rec.freq_hz);
                data.push(x);
            }
            frequencies.push(rec);
        }
        Self {
            ac: AcResult::from_parts(freqs, data, layout),
            report: RecoveryReport {
                frequencies,
                stopped,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(freq_hz: f64, status: FrequencyStatus) -> FrequencyRecovery {
        FrequencyRecovery {
            freq_hz,
            status,
            iterations: 0,
            rungs_attempted: 1,
            trajectory: String::new(),
            elapsed_seconds: 0.0,
        }
    }

    #[test]
    fn report_counts_and_summary() {
        let report = RecoveryReport {
            frequencies: vec![
                rec(1e6, FrequencyStatus::Solved),
                rec(1e7, FrequencyStatus::Rescued {
                    rung: KrylovRescueRung::GrownRestart,
                }),
                rec(1e8, FrequencyStatus::Skipped {
                    error: "stagnated".to_owned(),
                }),
                rec(1e9, FrequencyStatus::NotAttempted),
            ],
            stopped: Some("cancelled".to_owned()),
        };
        assert_eq!(report.solved_count(), 2);
        assert_eq!(report.rescued_count(), 1);
        assert_eq!(report.skipped_count(), 1);
        assert_eq!(report.not_attempted_count(), 1);
        assert!(!report.clean());
        let s = report.summary();
        assert!(s.contains("2/4 solved"), "{s}");
        assert!(s.contains("stopped early: cancelled"), "{s}");
    }

    #[test]
    fn clean_report_is_clean() {
        let report = RecoveryReport {
            frequencies: vec![rec(1e6, FrequencyStatus::Solved)],
            stopped: None,
        };
        assert!(report.clean());
    }

    #[test]
    fn defaults_are_sensible() {
        let r = ResilienceOptions::default();
        assert_eq!(r.policy, FailurePolicy::SkipAndReport);
        assert!(r.rescue.any_enabled());
        let strict = ResilienceOptions::strict();
        assert_eq!(strict.policy, FailurePolicy::Abort);
        assert!(!strict.rescue.any_enabled());
        assert_eq!(FailurePolicy::default(), FailurePolicy::Abort);
    }
}
