//! Fault injection for exercising solver recovery paths (tests only).
//!
//! Compiled only under the `solver-faults` feature. Real convergence
//! failures and singular pivots are hard to construct on demand, so the
//! recovery machinery (rescue ladder, adaptive step rejection, singular
//! diagnostics) would otherwise go untested until a production circuit
//! trips it. These hooks let the fault-injection test group force each
//! failure deterministically:
//!
//! * [`force_plain_newton_failure`] — the *plain* DC Newton rung
//!   reports divergence regardless of the actual iterate, driving the
//!   rescue ladder onto its homotopy rungs (which ignore the flag);
//! * [`inject_singular_pivot`] — the next linear-solver build fails
//!   with a `Singular` error at the given pivot, exercising the
//!   pivot → node-name diagnostic mapping;
//! * [`inject_tran_newton_stalls`] — the next `n` transient Newton
//!   solves pretend not to converge, exercising fixed-step divergence
//!   errors and adaptive-step rejection/halving;
//! * [`inject_singular_jacobians`] — the next `n` Woodbury Newton
//!   updates (DC or transient) find a singular Jacobian, exercising the
//!   failed-iteration path through the rescue ladder and the adaptive
//!   step controller.
//!
//! All state is process-global and atomic; fault-injection tests must
//! run single-threaded or reset state per test (`#[serial]`-style
//! discipline via one test fn per fault).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

static FAIL_PLAIN_NEWTON: AtomicBool = AtomicBool::new(false);
static SINGULAR_PIVOT: AtomicUsize = AtomicUsize::new(usize::MAX);
static TRAN_NEWTON_STALLS: AtomicUsize = AtomicUsize::new(0);
static SINGULAR_JACOBIANS: AtomicUsize = AtomicUsize::new(0);

/// Forces the plain DC Newton rung to report divergence while active.
pub fn force_plain_newton_failure(on: bool) {
    FAIL_PLAIN_NEWTON.store(on, Ordering::SeqCst);
}

pub(crate) fn plain_newton_forced_fail() -> bool {
    FAIL_PLAIN_NEWTON.load(Ordering::SeqCst)
}

/// Arms a one-shot singular failure at MNA unknown `pivot` for the next
/// linear-solver build; `None` disarms.
pub fn inject_singular_pivot(pivot: Option<usize>) {
    SINGULAR_PIVOT.store(pivot.unwrap_or(usize::MAX), Ordering::SeqCst);
}

pub(crate) fn take_singular_pivot() -> Option<usize> {
    let v = SINGULAR_PIVOT.swap(usize::MAX, Ordering::SeqCst);
    (v != usize::MAX).then_some(v)
}

/// Makes the next `n` transient Newton solves report non-convergence.
pub fn inject_tran_newton_stalls(n: usize) {
    TRAN_NEWTON_STALLS.store(n, Ordering::SeqCst);
}

pub(crate) fn take_tran_newton_stall() -> bool {
    take_one(&TRAN_NEWTON_STALLS)
}

/// Makes the next `n` Woodbury Newton updates report a singular
/// Jacobian.
pub fn inject_singular_jacobians(n: usize) {
    SINGULAR_JACOBIANS.store(n, Ordering::SeqCst);
}

pub(crate) fn take_singular_jacobian() -> bool {
    take_one(&SINGULAR_JACOBIANS)
}

/// Consumes one armed fault from a countdown; `false` once it is spent.
fn take_one(count: &AtomicUsize) -> bool {
    count
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
        .is_ok()
}

pub use ind101_numeric::faults::{inject_gmres_stagnation, inject_matvec_nan};

/// Clears all armed faults (call at the start of every fault test),
/// including the numeric crate's Krylov-stack hooks.
pub fn reset() {
    force_plain_newton_failure(false);
    inject_singular_pivot(None);
    inject_tran_newton_stalls(0);
    inject_singular_jacobians(0);
    ind101_numeric::faults::reset();
}
