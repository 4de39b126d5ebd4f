//! Scalar abstraction so dense/sparse kernels work over `f64` and
//! [`Complex64`] with a single implementation.

use crate::Complex64;
use std::fmt::Debug;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Field scalar usable by the factorization kernels.
///
/// Implemented for `f64` (DC/transient analysis, inductance matrices) and
/// [`Complex64`] (AC analysis). The trait is sealed in spirit — downstream
/// crates are not expected to implement it — but left open so tests can
/// exercise kernels generically.
pub trait Scalar:
    Copy
    + Debug
    + Default
    + PartialEq
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Send
    + Sync
    + 'static
{
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Embeds a real number.
    fn from_f64(x: f64) -> Self;
    /// Magnitude used for pivot selection and convergence checks.
    fn abs_val(self) -> f64;
    /// LAPACK's `cabs1`: `|re| + |im|` (`|x|` for reals). Within a
    /// factor √2 of [`Scalar::abs_val`] and free of its square root,
    /// so backward-error checks use it per stored entry.
    fn abs1(self) -> f64;
    /// Complex conjugate (identity for reals).
    fn conj_val(self) -> Self;
    /// Real part (identity for reals). Hermitian factorizations pivot on
    /// this: the diagonal of a Hermitian matrix is real, so any residual
    /// imaginary rounding noise is discarded rather than propagated.
    fn real_part(self) -> f64;
    /// Fused multiply–add: `self · m + a`. For `f64` this lowers to a
    /// hardware FMA (single rounding) where the target has one; the
    /// default is the unfused two-op form. The GEMM micro-kernel routes
    /// every accumulation through this so all code paths (and all thread
    /// counts) perform identical float ops.
    #[inline]
    fn mul_add(self, m: Self, a: Self) -> Self {
        self * m + a
    }
    /// Returns `true` if the value is exactly zero.
    fn is_zero(self) -> bool {
        self == Self::zero()
    }
}

impl Scalar for f64 {
    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn one() -> Self {
        1.0
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        x
    }
    #[inline]
    fn abs_val(self) -> f64 {
        self.abs()
    }
    #[inline]
    fn abs1(self) -> f64 {
        self.abs()
    }
    #[inline]
    fn conj_val(self) -> Self {
        self
    }
    #[inline]
    fn real_part(self) -> f64 {
        self
    }
    #[inline]
    fn mul_add(self, m: Self, a: Self) -> Self {
        f64::mul_add(self, m, a)
    }
}

impl Scalar for Complex64 {
    #[inline]
    fn zero() -> Self {
        Complex64::ZERO
    }
    #[inline]
    fn one() -> Self {
        Complex64::ONE
    }
    #[inline]
    fn from_f64(x: f64) -> Self {
        Complex64::from_real(x)
    }
    #[inline]
    fn abs_val(self) -> f64 {
        self.abs()
    }
    #[inline]
    fn abs1(self) -> f64 {
        self.re.abs() + self.im.abs()
    }
    #[inline]
    fn conj_val(self) -> Self {
        self.conj()
    }
    #[inline]
    fn real_part(self) -> f64 {
        self.re
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum3<T: Scalar>(a: T, b: T, c: T) -> T {
        a + b + c
    }

    #[test]
    fn generic_arithmetic_over_both_fields() {
        assert_eq!(sum3(1.0, 2.0, 3.0), 6.0);
        let z = sum3(Complex64::I, Complex64::ONE, Complex64::I);
        assert_eq!(z, Complex64::new(1.0, 2.0));
    }

    #[test]
    fn abs_and_conj_consistency() {
        assert_eq!((-3.0f64).abs_val(), 3.0);
        assert_eq!((-3.0f64).conj_val(), -3.0);
        let z = Complex64::new(0.0, -2.0);
        assert_eq!(z.abs_val(), 2.0);
        assert_eq!(z.conj_val(), Complex64::new(0.0, 2.0));
    }

    #[test]
    fn identities() {
        assert!(f64::zero().is_zero());
        assert!(!f64::one().is_zero());
        assert_eq!(Complex64::from_f64(2.5), Complex64::new(2.5, 0.0));
    }
}
