//! Fault injection for the iterative (Krylov) stack (tests only).
//!
//! Compiled only under the `solver-faults` feature, mirroring the
//! circuit-level hooks in `ind101-circuit`. Genuine GMRES stagnation
//! and NaN-producing operators are hard to construct on demand, so the
//! Krylov rescue ladder would otherwise go untested until a production
//! sweep trips it. These hooks force each failure deterministically:
//!
//! * [`inject_gmres_stagnation`] — the next `n` GMRES solves report a
//!   typed `Stagnation` at their first restart boundary, driving the
//!   rescue ladder onto its grown-restart rung (which consumes one
//!   injection as well, so `n = 1` is rescued by the grown restart and
//!   `n = 2` reaches the dense-direct rung);
//! * [`inject_matvec_nan`] — the next `n` GMRES Arnoldi matvecs have a
//!   NaN written into their output, exercising the typed non-finite
//!   `Breakdown` path.
//!
//! All state is process-global and atomic; fault-injection tests must
//! serialize and reset state per test.

use std::sync::atomic::{AtomicUsize, Ordering};

static GMRES_STAGNATIONS: AtomicUsize = AtomicUsize::new(0);
static MATVEC_NANS: AtomicUsize = AtomicUsize::new(0);

/// Makes the next `n` GMRES solves report stagnation at their first
/// restart boundary.
pub fn inject_gmres_stagnation(n: usize) {
    GMRES_STAGNATIONS.store(n, Ordering::SeqCst);
}

pub(crate) fn take_gmres_stagnation() -> bool {
    GMRES_STAGNATIONS
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
        .is_ok()
}

/// Poisons the next `n` GMRES Arnoldi matvec results with a NaN.
pub fn inject_matvec_nan(n: usize) {
    MATVEC_NANS.store(n, Ordering::SeqCst);
}

pub(crate) fn take_matvec_nan() -> bool {
    MATVEC_NANS
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
        .is_ok()
}

/// Clears all armed faults (call at the start of every fault test).
pub fn reset() {
    inject_gmres_stagnation(0);
    inject_matvec_nan(0);
}
