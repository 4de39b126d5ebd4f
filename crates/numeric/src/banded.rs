//! Banded LU with partial pivoting (LAPACK `dgbtrf`-style storage).
//!
//! After reverse Cuthill–McKee reordering, the MNA matrices of on-chip
//! power-grid and clock-net circuits are tightly banded, so a banded
//! factorization costs `O(n·(kl+ku)²)` — this is what makes transient
//! simulation of the detailed PEEC model tractable without importing a
//! full sparse-LU package. Works over `f64` and [`crate::Complex64`]
//! (AC analysis) through the [`Scalar`] abstraction.

use crate::{NumericError, Result, Scalar, Triplets};

/// Banded square matrix with `kl` sub-diagonals and `ku` super-diagonals.
///
/// Storage follows the LAPACK band convention with `kl` extra
/// super-diagonal rows to absorb fill from row pivoting: entry `(i, j)`
/// lives at offset `kl + ku + i − j` within column `j`.
#[derive(Clone, Debug)]
pub struct BandedMatrix<T = f64> {
    n: usize,
    kl: usize,
    ku: usize,
    /// Column-major band storage, leading dimension `2·kl + ku + 1`.
    ab: Vec<T>,
    /// Pivot rows from factorization (empty until [`Self::factor`]).
    ipiv: Vec<usize>,
    factored: bool,
}

impl<T: Scalar> BandedMatrix<T> {
    /// Creates a zero matrix of dimension `n` with half-bandwidths
    /// `kl` (sub) and `ku` (super).
    pub fn zeros(n: usize, kl: usize, ku: usize) -> Self {
        let ldab = 2 * kl + ku + 1;
        Self {
            n,
            kl,
            ku,
            ab: vec![T::zero(); ldab * n],
            ipiv: Vec::new(),
            factored: false,
        }
    }

    /// Assembles a banded matrix from triplets (duplicates accumulate).
    ///
    /// # Errors
    ///
    /// * [`NumericError::NotSquare`] if the triplet shape is not square.
    /// * [`NumericError::OutsideBand`] if an entry violates the band.
    pub fn from_triplets(t: &Triplets<T>, kl: usize, ku: usize) -> Result<Self> {
        if t.nrows() != t.ncols() {
            return Err(NumericError::NotSquare {
                rows: t.nrows(),
                cols: t.ncols(),
            });
        }
        let mut m = Self::zeros(t.nrows(), kl, ku);
        for &(i, j, v) in t.entries() {
            m.add(i, j, v)?;
        }
        Ok(m)
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Sub-diagonal half-bandwidth.
    pub fn kl(&self) -> usize {
        self.kl
    }

    /// Super-diagonal half-bandwidth (as declared; pivoting may fill up
    /// to `kl + ku` internally).
    pub fn ku(&self) -> usize {
        self.ku
    }

    /// Whether [`Self::factor`] has completed.
    pub fn is_factored(&self) -> bool {
        self.factored
    }

    #[inline]
    fn ldab(&self) -> usize {
        2 * self.kl + self.ku + 1
    }

    /// Offset of `(i, j)` in band storage, or `None` if outside the
    /// (fill-extended) band.
    #[inline]
    fn offset(&self, i: usize, j: usize) -> Option<usize> {
        if i >= self.n || j >= self.n {
            return None;
        }
        // Valid band after fill: j − (kl + ku) ≤ i ≤ j + kl.
        if i + self.kl + self.ku < j || i > j + self.kl {
            return None;
        }
        Some(self.ldab() * j + (self.kl + self.ku + i - j))
    }

    /// Error for an access that landed outside the extended band
    /// (cannot happen for in-band factorization indices; used to
    /// degrade invariant violations to errors instead of panics).
    #[cold]
    fn outside_band(&self, row: usize, col: usize) -> NumericError {
        NumericError::OutsideBand {
            row,
            col,
            kl: self.kl,
            ku: self.ku,
        }
    }

    /// Reads entry `(i, j)`; zero outside the band.
    pub fn get(&self, i: usize, j: usize) -> T {
        self.offset(i, j).map_or(T::zero(), |o| self.ab[o])
    }

    /// Adds `v` to entry `(i, j)`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::OutsideBand`] if `(i, j)` violates the
    /// *declared* band `kl`/`ku` (assembly must not use the fill region).
    pub fn add(&mut self, i: usize, j: usize, v: T) -> Result<()> {
        let inside_declared = i + self.ku >= j && j + self.kl >= i && i < self.n && j < self.n;
        if !inside_declared {
            return Err(NumericError::OutsideBand {
                row: i,
                col: j,
                kl: self.kl,
                ku: self.ku,
            });
        }
        let Some(o) = self.offset(i, j) else {
            // Unreachable: the declared-band check above bounds the
            // extended storage band, but degrade to an error anyway.
            return Err(NumericError::OutsideBand {
                row: i,
                col: j,
                kl: self.kl,
                ku: self.ku,
            });
        };
        self.ab[o] += v;
        Ok(())
    }

    /// Factors the matrix in place (`P·A = L·U`) with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::Singular`] on an exactly-zero pivot
    /// column.
    pub fn factor(&mut self) -> Result<()> {
        let n = self.n;
        let kl = self.kl;
        let kufill = self.kl + self.ku;
        let mut ipiv = vec![0usize; n];
        for j in 0..n {
            // Pivot among rows j..=min(n-1, j+kl) of column j.
            let imax_row = (j + kl).min(n.saturating_sub(1));
            let mut p = j;
            let mut best = self.get(j, j).abs_val();
            for i in (j + 1)..=imax_row.max(j) {
                if i >= n {
                    break;
                }
                let v = self.get(i, j).abs_val();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best == 0.0 || !best.is_finite() {
                return Err(NumericError::Singular { pivot: j });
            }
            ipiv[j] = p;
            let jend = (j + kufill).min(n - 1);
            if p != j {
                for c in j..=jend {
                    let op = self.offset(p, c);
                    let oj = self.offset(j, c);
                    match (op, oj) {
                        (Some(op), Some(oj)) => self.ab.swap(op, oj),
                        (Some(op), None) => {
                            // Should not happen: row j reaches at least as
                            // far right as row p within the fill band.
                            debug_assert!(self.ab[op].is_zero());
                        }
                        (None, Some(oj)) => {
                            debug_assert!(self.ab[oj].is_zero());
                        }
                        (None, None) => {}
                    }
                }
            }
            let pivot = self.get(j, j);
            let iend = (j + kl).min(n - 1);
            for i in (j + 1)..=iend.max(j) {
                if i > iend {
                    break;
                }
                let Some(oij) = self.offset(i, j) else {
                    return Err(self.outside_band(i, j));
                };
                let m = self.ab[oij] / pivot;
                self.ab[oij] = m;
                if m.is_zero() {
                    continue;
                }
                for c in (j + 1)..=jend {
                    let ujc = self.get(j, c);
                    if ujc.is_zero() {
                        continue;
                    }
                    // Fill stays within the extended band by
                    // construction; guard instead of panicking.
                    let Some(oic) = self.offset(i, c) else {
                        return Err(self.outside_band(i, c));
                    };
                    self.ab[oic] -= m * ujc;
                }
            }
        }
        self.ipiv = ipiv;
        self.factored = true;
        Ok(())
    }

    /// Solves `A·x = b` using the factors from [`Self::factor`].
    ///
    /// # Errors
    ///
    /// * [`NumericError::DimensionMismatch`] for a wrong-length `b`.
    /// * [`NumericError::Singular`] if called before factorization.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>> {
        if !self.factored {
            return Err(NumericError::Singular { pivot: 0 });
        }
        if b.len() != self.n {
            return Err(NumericError::DimensionMismatch {
                expected: self.n,
                found: b.len(),
            });
        }
        let n = self.n;
        let kl = self.kl;
        let kufill = self.kl + self.ku;
        let ldab = self.ldab();
        let mut x = b.to_vec();
        // Column `j` of the band is `ab[j·ldab ..][.. ldab]`, with entry
        // `(i, j)` at offset `kufill + i − j`: the diagonal at `kufill`,
        // L below it and U above it, each read as one slice.
        // Forward: apply P and L.
        for j in 0..n {
            let p = self.ipiv[j];
            if p != j {
                x.swap(p, j);
            }
            let iend = (j + kl).min(n - 1);
            let xj = x[j];
            if xj.is_zero() {
                continue;
            }
            let lcol = &self.ab[j * ldab + kufill + 1..j * ldab + kufill + 1 + (iend - j)];
            for (xi, &l) in x[j + 1..=iend].iter_mut().zip(lcol) {
                *xi -= l * xj;
            }
        }
        // Backward: U.
        for j in (0..n).rev() {
            let col = &self.ab[j * ldab..(j + 1) * ldab];
            let xj = x[j] / col[kufill];
            x[j] = xj;
            if xj.is_zero() {
                continue;
            }
            let istart = j.saturating_sub(kufill);
            let ucol = &col[kufill - (j - istart)..kufill];
            for (xi, &u) in x[istart..j].iter_mut().zip(ucol) {
                if !u.is_zero() {
                    *xi -= u * xj;
                }
            }
        }
        Ok(x)
    }

    /// Convenience: factor (if needed) and solve in one call.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::factor`] / [`Self::solve`] errors.
    pub fn factor_solve(&mut self, b: &[T]) -> Result<Vec<T>> {
        if !self.factored {
            self.factor()?;
        }
        self.solve(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Complex64, Matrix};

    fn dense_of(t: &Triplets<f64>) -> Matrix<f64> {
        t.to_dense()
    }

    #[test]
    fn tridiagonal_solve_matches_dense_lu() {
        let n = 12;
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 4.0);
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
                t.push(i + 1, i, -1.5);
            }
        }
        let dense = dense_of(&t);
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut band = BandedMatrix::from_triplets(&t, 1, 1).unwrap();
        let x = band.factor_solve(&b).unwrap();
        let xd = dense.lu().unwrap().solve(&b).unwrap();
        for (u, v) in x.iter().zip(&xd) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn pivoting_within_band() {
        // Zero diagonal forces pivoting.
        let mut t = Triplets::new(3, 3);
        t.push(0, 0, 0.0); // skipped (zero), so structurally absent
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        t.push(1, 1, 2.0);
        t.push(2, 2, 1.0);
        t.push(1, 2, 0.5);
        t.push(2, 1, 0.25);
        let mut band = BandedMatrix::from_triplets(&t, 1, 1).unwrap();
        let b = [1.0, 2.0, 3.0];
        let x = band.factor_solve(&b).unwrap();
        let dense = dense_of(&t);
        let xd = dense.lu().unwrap().solve(&b).unwrap();
        for (u, v) in x.iter().zip(&xd) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn wide_band_matches_dense() {
        let n = 20;
        let (kl, ku) = (3usize, 2usize);
        let mut t = Triplets::new(n, n);
        let mut seed = 7u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        for i in 0..n {
            for j in i.saturating_sub(kl)..(i + ku + 1).min(n) {
                let v = if i == j { 6.0 + next() } else { next() };
                t.push(i, j, v);
            }
        }
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let mut band = BandedMatrix::from_triplets(&t, kl, ku).unwrap();
        let x = band.factor_solve(&b).unwrap();
        let xd = dense_of(&t).lu().unwrap().solve(&b).unwrap();
        for (u, v) in x.iter().zip(&xd) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn outside_band_rejected() {
        let mut m = BandedMatrix::<f64>::zeros(5, 1, 1);
        assert!(matches!(
            m.add(0, 3, 1.0),
            Err(NumericError::OutsideBand { .. })
        ));
        assert!(m.add(2, 3, 1.0).is_ok());
    }

    #[test]
    fn singular_detected() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 1.0);
        // Column 1 entirely zero.
        let mut band = BandedMatrix::from_triplets(&t, 1, 1).unwrap();
        assert!(matches!(band.factor(), Err(NumericError::Singular { .. })));
    }

    #[test]
    fn solve_before_factor_errors() {
        let band = BandedMatrix::<f64>::zeros(2, 1, 1);
        assert!(band.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn complex_banded_solve() {
        let n = 6;
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, Complex64::new(3.0, 1.0));
            if i + 1 < n {
                t.push(i, i + 1, Complex64::new(0.0, -0.5));
                t.push(i + 1, i, Complex64::new(0.5, 0.0));
            }
        }
        let b: Vec<Complex64> = (0..n).map(|i| Complex64::new(i as f64, 1.0)).collect();
        let mut band = BandedMatrix::from_triplets(&t, 1, 1).unwrap();
        let x = band.factor_solve(&b).unwrap();
        // Residual check against the dense operator.
        let dense = t.to_dense();
        let r = dense.matvec(&x).unwrap();
        for (u, v) in r.iter().zip(&b) {
            assert!((*u - *v).abs() < 1e-12);
        }
    }

    /// The solve as it read the band before: one bounds-checked `get`
    /// per entry. The slice walk must match it bit for bit.
    fn solve_by_get(m: &BandedMatrix<f64>, b: &[f64]) -> Vec<f64> {
        let (n, kl, kufill) = (m.n, m.kl, m.kl + m.ku);
        let mut x = b.to_vec();
        for j in 0..n {
            let p = m.ipiv[j];
            if p != j {
                x.swap(p, j);
            }
            let xj = x[j];
            if xj.is_zero() {
                continue;
            }
            for i in j + 1..=(j + kl).min(n - 1) {
                x[i] -= m.get(i, j) * xj;
            }
        }
        for j in (0..n).rev() {
            let xj = x[j] / m.get(j, j);
            x[j] = xj;
            if xj.is_zero() {
                continue;
            }
            for i in j.saturating_sub(kufill)..j {
                let u = m.get(i, j);
                if !u.is_zero() {
                    x[i] -= u * xj;
                }
            }
        }
        x
    }

    #[test]
    fn slice_solve_matches_entrywise_solve_bit_for_bit() {
        // Weak diagonals force row swaps, so U fills out to kl + ku;
        // zero right-hand-side entries take the skip branches.
        let mut seed = 11u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        for (n, kl, ku) in [(1, 0, 0), (9, 1, 1), (40, 3, 2), (33, 0, 4), (30, 5, 0)] {
            let mut t = Triplets::new(n, n);
            for i in 0..n {
                for j in i.saturating_sub(kl)..(i + ku + 1).min(n) {
                    t.push(i, j, if i == j { 0.1 + next() } else { next() });
                }
            }
            let mut band = BandedMatrix::from_triplets(&t, kl, ku).unwrap();
            band.factor().unwrap();
            let b: Vec<f64> = (0..n)
                .map(|i| if i % 3 == 0 { 0.0 } else { next() })
                .collect();
            let got: Vec<u64> = band
                .solve(&b)
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let want: Vec<u64> = solve_by_get(&band, &b)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(got, want, "n = {n}, kl = {kl}, ku = {ku}");
        }
    }

    #[test]
    fn get_outside_band_is_zero() {
        let m = BandedMatrix::<f64>::zeros(4, 1, 1);
        assert_eq!(m.get(0, 3), 0.0);
        assert_eq!(m.get(3, 0), 0.0);
    }
}
