//! Sparse matrix support: coordinate (triplet) assembly and compressed
//! sparse row storage.
//!
//! MNA stamping naturally produces duplicate coordinate entries (every
//! element stamps its own contribution); [`Triplets`] accumulates them
//! and [`Triplets::to_csr`] merges duplicates. The CSR form feeds
//! matrix–vector products (PRIMA) and the sparse LU's symbolic analysis
//! ([`crate::SymbolicLu`]).

use crate::{Matrix, NumericError, Result, Scalar};

/// Coordinate-format sparse matrix builder with duplicate accumulation.
#[derive(Clone, Debug)]
pub struct Triplets<T = f64> {
    nrows: usize,
    ncols: usize,
    entries: Vec<(usize, usize, T)>,
}

impl<T: Scalar> Triplets<T> {
    /// Creates an empty builder for an `nrows × ncols` matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            entries: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of raw (pre-merge) entries pushed so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries have been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds `value` at `(row, col)`; duplicates accumulate on conversion.
    ///
    /// # Panics
    ///
    /// Panics (debug assertions) if the position is out of range.
    #[inline]
    pub fn push(&mut self, row: usize, col: usize, value: T) {
        debug_assert!(row < self.nrows && col < self.ncols, "triplet out of range");
        if !value.is_zero() {
            self.entries.push((row, col, value));
        }
    }

    /// Raw entries view.
    pub fn entries(&self) -> &[(usize, usize, T)] {
        &self.entries
    }

    /// Converts to CSR, merging duplicate coordinates by summation in
    /// push order.
    ///
    /// A stable counting sort buckets the entries by row; each row is
    /// then stably sorted by column (most MNA rows arrive sorted and
    /// skip the sort). That is `O(nnz + nrows)` plus the per-row sorts,
    /// where one sort of every `(row, col)` key costs `O(nnz·log nnz)`.
    /// Both orders keep duplicates in push order, so the sums — and
    /// every output bit — are the same as a stable `(row, col)` sort's.
    pub fn to_csr(&self) -> CsrMatrix<T> {
        let mut start = vec![0usize; self.nrows + 1];
        for &(r, _, _) in &self.entries {
            start[r + 1] += 1;
        }
        for r in 0..self.nrows {
            start[r + 1] += start[r];
        }
        let mut fill = start.clone();
        let mut by_row = vec![(0usize, T::zero()); self.entries.len()];
        for &(r, c, v) in &self.entries {
            by_row[fill[r]] = (c, v);
            fill[r] += 1;
        }
        let mut indptr = Vec::with_capacity(self.nrows + 1);
        let mut indices = Vec::with_capacity(by_row.len());
        let mut data: Vec<T> = Vec::with_capacity(by_row.len());
        indptr.push(0);
        for r in 0..self.nrows {
            let row = &mut by_row[start[r]..start[r + 1]];
            if !row.is_sorted_by_key(|&(c, _)| c) {
                row.sort_by_key(|&(c, _)| c);
            }
            let mut prev = None;
            for &(c, v) in row.iter() {
                if prev == Some(c) {
                    // Sorted order guarantees duplicates are adjacent, so
                    // a prior entry always exists here.
                    if let Some(last) = data.last_mut() {
                        *last += v;
                    }
                } else {
                    indices.push(c);
                    data.push(v);
                    prev = Some(c);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            indptr,
            indices,
            data,
        }
    }

    /// Converts to a dense matrix (small systems and tests).
    pub fn to_dense(&self) -> Matrix<T> {
        let mut m = Matrix::zeros(self.nrows, self.ncols);
        for &(r, c, v) in &self.entries {
            m[(r, c)] += v;
        }
        m
    }
}

/// Compressed sparse row matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix<T = f64> {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    data: Vec<T>,
}

impl<T: Scalar> CsrMatrix<T> {
    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored (structural) non-zeros.
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    /// Row pointer array (`nrows + 1` entries).
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Column indices, row-by-row.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Stored values, aligned with [`CsrMatrix::indices`].
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// The row pointers and column indices, with the stored values
    /// writable: a caller that knows the pattern refills the values in
    /// place, and the pattern cannot change under it.
    pub fn pattern_and_values_mut(&mut self) -> (&[usize], &[usize], &mut [T]) {
        (&self.indptr, &self.indices, &mut self.data)
    }

    /// Iterates over `(col, value)` pairs of row `i`.
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = (usize, T)> + '_ {
        let lo = self.indptr[i];
        let hi = self.indptr[i + 1];
        self.indices[lo..hi]
            .iter()
            .copied()
            .zip(self.data[lo..hi].iter().copied())
    }

    /// Value at `(i, j)`, zero if not stored.
    ///
    /// `to_csr` emits each row's columns in ascending order, so lookup
    /// is a binary search within the row, not a linear scan.
    pub fn get(&self, i: usize, j: usize) -> T {
        let lo = self.indptr[i];
        let hi = self.indptr[i + 1];
        match self.indices[lo..hi].binary_search(&j) {
            Ok(k) => self.data[lo + k],
            Err(_) => T::zero(),
        }
    }

    /// Whether `(i, j)` is *structurally* present (stored, even if the
    /// stored value happens to be zero).
    pub fn contains(&self, i: usize, j: usize) -> bool {
        let lo = self.indptr[i];
        let hi = self.indptr[i + 1];
        self.indices[lo..hi].binary_search(&j).is_ok()
    }

    /// Fraction of stored entries: `nnz / (nrows · ncols)`; 0 for an
    /// empty shape. Drives the Auto backend-selection heuristic.
    pub fn density(&self) -> f64 {
        let cells = self.nrows * self.ncols;
        if cells == 0 {
            0.0
        } else {
            self.nnz() as f64 / cells as f64
        }
    }

    /// Matrix–vector product `y = A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `x.len() != ncols`.
    pub fn matvec(&self, x: &[T]) -> Result<Vec<T>> {
        if x.len() != self.ncols {
            return Err(NumericError::DimensionMismatch {
                expected: self.ncols,
                found: x.len(),
            });
        }
        let mut y = vec![T::zero(); self.nrows];
        for i in 0..self.nrows {
            let mut acc = T::zero();
            for (c, v) in self.row_iter(i) {
                acc += v * x[c];
            }
            y[i] = acc;
        }
        Ok(y)
    }

    /// Converts to dense storage.
    pub fn to_dense(&self) -> Matrix<T> {
        let mut m = Matrix::zeros(self.nrows, self.ncols);
        for i in 0..self.nrows {
            for (c, v) in self.row_iter(i) {
                m[(i, c)] = v;
            }
        }
        m
    }

    /// Undirected adjacency lists of the structural pattern of a square
    /// matrix (`i ~ j` when either `(i,j)` or `(j,i)` is stored),
    /// excluding self-loops. Input to the AMD ordering.
    ///
    /// Each list is sorted and free of duplicates. A counting sort by
    /// column gives the transpose with every column's rows ascending;
    /// list `k` is then one merge of row `k`, already sorted, with
    /// column `k`. That is `O(nnz + n)`, with no per-row sort.
    pub fn adjacency(&self) -> Vec<Vec<usize>> {
        let n = self.nrows.max(self.ncols);
        let mut col_start = vec![0usize; n + 1];
        for &j in &self.indices {
            col_start[j + 1] += 1;
        }
        for k in 0..n {
            col_start[k + 1] += col_start[k];
        }
        let mut fill = col_start.clone();
        let mut col_rows = vec![0usize; self.indices.len()];
        for i in 0..self.nrows {
            for &j in &self.indices[self.indptr[i]..self.indptr[i + 1]] {
                col_rows[fill[j]] = i;
                fill[j] += 1;
            }
        }
        (0..n)
            .map(|k| {
                let row = if k < self.nrows {
                    &self.indices[self.indptr[k]..self.indptr[k + 1]]
                } else {
                    &[]
                };
                let col = &col_rows[col_start[k]..col_start[k + 1]];
                let mut list = Vec::with_capacity(row.len() + col.len());
                let mut col = col.iter().copied().filter(|&i| i != k).peekable();
                for j in row.iter().copied().filter(|&j| j != k) {
                    while let Some(i) = col.next_if(|&i| i < j) {
                        list.push(i);
                    }
                    col.next_if_eq(&j);
                    list.push(j);
                }
                list.extend(col);
                list
            })
            .collect()
    }
}

/// The structure of a CSR matrix without its values: row pointers and
/// column indices.
///
/// Structural work that is cached and reused — a sparse LU's symbolic
/// analysis, a solve plan's backend decision — keeps the pattern it
/// was made for and compares it exactly against each new matrix, so a
/// cache never trusts a hash of the pattern.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrPattern {
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
}

impl CsrPattern {
    /// The pattern of `a`.
    pub fn of<T: Scalar>(a: &CsrMatrix<T>) -> Self {
        Self {
            ncols: a.ncols,
            indptr: a.indptr.clone(),
            indices: a.indices.clone(),
        }
    }

    /// Number of stored (structural) entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Whether `a` has exactly this pattern: the same shape, row
    /// pointers and column indices (`O(nnz)`, no allocation).
    pub fn matches<T: Scalar>(&self, a: &CsrMatrix<T>) -> bool {
        a.ncols == self.ncols && a.indptr == self.indptr && a.indices == self.indices
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_accumulate() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(0, 0, 2.5);
        t.push(1, 1, -1.0);
        let a = t.to_csr();
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.get(0, 0), 3.5);
        assert_eq!(a.get(1, 1), -1.0);
        assert_eq!(a.get(0, 1), 0.0);
        // Summed in push order, (1 + 1e16) − 1e16 = 0 in f64; summed in
        // reverse, (−1e16 + 1e16) + 1 = 1.
        let mut t = Triplets::new(2, 2);
        t.push(1, 1, 1.0);
        t.push(1, 0, 2.0);
        t.push(1, 1, 1e16);
        t.push(1, 1, -1e16);
        assert_eq!(t.to_csr().get(1, 1), 0.0);
    }

    #[test]
    fn zero_pushes_are_skipped() {
        let mut t = Triplets::new(1, 1);
        t.push(0, 0, 0.0);
        assert!(t.is_empty());
    }

    #[test]
    fn csr_matches_dense() {
        let mut t = Triplets::new(3, 3);
        for (r, c, v) in [(0, 1, 2.0), (1, 0, 3.0), (2, 2, 4.0), (0, 1, 1.0)] {
            t.push(r, c, v);
        }
        let csr = t.to_csr();
        let dense = t.to_dense();
        assert_eq!(csr.to_dense(), dense);
        assert_eq!(csr.nnz(), 3);
    }

    #[test]
    fn matvec_agrees_with_dense() {
        let mut t = Triplets::new(3, 3);
        t.push(0, 0, 2.0);
        t.push(0, 2, 1.0);
        t.push(1, 1, 3.0);
        t.push(2, 0, -1.0);
        let csr = t.to_csr();
        let x = [1.0, 2.0, 3.0];
        let y = csr.matvec(&x).unwrap();
        let yd = t.to_dense().matvec(&x).unwrap();
        assert_eq!(y, yd);
    }

    #[test]
    fn empty_rows_have_valid_pointers() {
        let mut t = Triplets::new(4, 4);
        t.push(3, 3, 1.0);
        let csr = t.to_csr();
        assert_eq!(csr.indptr(), &[0, 0, 0, 0, 1]);
        assert_eq!(csr.matvec(&[1.0; 4]).unwrap(), vec![0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn adjacency_is_symmetric_without_self_loops() {
        let mut t = Triplets::new(3, 3);
        t.push(0, 1, 1.0);
        t.push(1, 1, 5.0);
        t.push(2, 0, 1.0);
        let adj = t.to_csr().adjacency();
        assert_eq!(adj[0], vec![1, 2]);
        assert_eq!(adj[1], vec![0]);
        assert_eq!(adj[2], vec![0]);
    }

    #[test]
    fn matvec_dimension_error() {
        let t = Triplets::<f64>::new(2, 3);
        let csr = t.to_csr();
        assert!(csr.matvec(&[0.0; 2]).is_err());
        assert!(csr.matvec(&[0.0; 4]).is_err());
    }

    #[test]
    fn get_binary_search_agrees_with_scan_on_wide_rows() {
        // A row with many entries: every stored and absent column must
        // resolve exactly as a linear scan would.
        let mut t = Triplets::new(2, 101);
        for c in (0..101).step_by(3) {
            t.push(0, c, c as f64 + 0.5);
        }
        let csr = t.to_csr();
        for c in 0..101 {
            let expect = if c % 3 == 0 { c as f64 + 0.5 } else { 0.0 };
            assert_eq!(csr.get(0, c), expect, "col {c}");
            assert_eq!(csr.contains(0, c), c % 3 == 0);
        }
        // Row 1 is empty: everything absent.
        assert_eq!(csr.get(1, 50), 0.0);
        assert!(!csr.contains(1, 50));
    }

    #[test]
    fn contains_sees_structural_zeros() {
        // Cancelling duplicates leave a stored zero: `get` reports 0,
        // `contains` reports presence.
        let mut t = Triplets::new(1, 2);
        t.push(0, 0, 1.0);
        t.push(0, 0, -1.0);
        let csr = t.to_csr();
        assert_eq!(csr.get(0, 0), 0.0);
        assert!(csr.contains(0, 0));
        assert!(!csr.contains(0, 1));
    }

    /// Oracle: one stable sort of every triplet by `(row, col)`, then a
    /// left-to-right merge of duplicates.
    fn to_csr_by_stable_sort<T: Scalar>(t: &Triplets<T>) -> CsrMatrix<T> {
        let mut sorted = t.entries().to_vec();
        sorted.sort_by_key(|&(r, c, _)| (r, c));
        let mut indptr = vec![0usize; t.nrows() + 1];
        let mut indices = Vec::new();
        let mut data: Vec<T> = Vec::new();
        let mut prev = None;
        for (r, c, v) in sorted {
            if prev == Some((r, c)) {
                *data.last_mut().unwrap() += v;
            } else {
                indices.push(c);
                data.push(v);
                indptr[r + 1] += 1;
                prev = Some((r, c));
            }
        }
        for r in 0..t.nrows() {
            indptr[r + 1] += indptr[r];
        }
        CsrMatrix {
            nrows: t.nrows(),
            ncols: t.ncols(),
            indptr,
            indices,
            data,
        }
    }

    /// Random triplets with many duplicates whose magnitudes span 32
    /// decades, so any change in summation order changes the sums.
    fn random_triplets(seed: u64, nrows: usize, ncols: usize, len: usize) -> Triplets<f64> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut t = Triplets::new(nrows, ncols);
        for _ in 0..len {
            // Few distinct columns per row, so duplicates are common.
            let r = (next() % nrows as u64) as usize;
            let c = (next() % ncols.min(4 + (next() % 9) as usize) as u64) as usize;
            let mag = 10f64.powi((next() % 33) as i32 - 16);
            let sign = if next() % 2 == 0 { 1.0 } else { -1.0 };
            t.push(r, c, sign * mag * (1.0 + (next() % 1000) as f64 / 997.0));
        }
        t
    }

    fn assert_bitwise_equal<T: Scalar>(
        got: &CsrMatrix<T>,
        want: &CsrMatrix<T>,
        bits: impl Fn(&T) -> Vec<u64>,
    ) {
        assert_eq!(got.indptr, want.indptr);
        assert_eq!(got.indices, want.indices);
        let g: Vec<Vec<u64>> = got.data.iter().map(&bits).collect();
        let w: Vec<Vec<u64>> = want.data.iter().map(&bits).collect();
        assert_eq!(g, w);
    }

    proptest::proptest! {
        #[test]
        fn to_csr_is_bitwise_the_stable_sort(
            seed in 0u64..1_000_000,
            nrows in 1usize..40,
            ncols in 1usize..40,
            len in 0usize..400,
        ) {
            let t = random_triplets(seed, nrows, ncols, len);
            assert_bitwise_equal(&t.to_csr(), &to_csr_by_stable_sort(&t), |v| vec![v.to_bits()]);
            // The same positions over complex values.
            let mut tc: Triplets<crate::Complex64> = Triplets::new(nrows, ncols);
            for (k, &(r, c, v)) in t.entries().iter().enumerate() {
                tc.push(r, c, crate::Complex64::new(v, v * (k as f64 - 7.5)));
            }
            assert_bitwise_equal(&tc.to_csr(), &to_csr_by_stable_sort(&tc), |z| {
                vec![z.re.to_bits(), z.im.to_bits()]
            });
        }
    }

    /// Oracle: push both directions of every off-diagonal entry, then
    /// sort and dedup every list.
    fn adjacency_by_sort<T: Scalar>(a: &CsrMatrix<T>) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); a.nrows().max(a.ncols())];
        for i in 0..a.nrows() {
            for (j, _) in a.row_iter(i) {
                if i != j {
                    adj[i].push(j);
                    adj[j].push(i);
                }
            }
        }
        for l in &mut adj {
            l.sort_unstable();
            l.dedup();
        }
        adj
    }

    proptest::proptest! {
        #[test]
        fn adjacency_is_the_sorted_symmetrization(
            seed in 0u64..1_000_000,
            nrows in 0usize..50,
            ncols in 0usize..50,
            square in proptest::prelude::prop::bool::ANY,
            diagonal in 0u32..3,
            density in 0.0f64..1.0,
        ) {
            // `diagonal`: 0 no diagonal entries, 1 every one, 2 as drawn.
            let ncols = if square { nrows } else { ncols };
            let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut coin = move |p: f64| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s >> 11) as f64 / (1u64 << 53) as f64) < p
            };
            let mut t = Triplets::new(nrows, ncols);
            for i in 0..nrows {
                for j in 0..ncols {
                    let stored = match (i == j, diagonal) {
                        (true, 0) => false,
                        (true, 1) => true,
                        _ => coin(density),
                    };
                    if stored {
                        t.push(i, j, 1.0);
                    }
                }
            }
            let a = t.to_csr();
            proptest::prop_assert_eq!(a.adjacency(), adjacency_by_sort(&a));
        }
    }

    #[test]
    fn pattern_matches_only_the_same_structure() {
        let mut t = Triplets::new(3, 3);
        t.push(0, 0, 1.0);
        t.push(1, 2, 2.0);
        t.push(2, 1, 3.0);
        let a = t.to_csr();
        let p = CsrPattern::of(&a);
        assert_eq!(p.nnz(), 3);
        // Same positions, other values: a match.
        let mut t2 = Triplets::new(3, 3);
        for &(r, c, v) in t.entries() {
            t2.push(r, c, -v);
        }
        assert!(p.matches(&t2.to_csr()));
        // Same nnz and row counts, one column moved: no match.
        let mut t3 = Triplets::new(3, 3);
        t3.push(0, 0, 1.0);
        t3.push(1, 1, 2.0);
        t3.push(2, 1, 3.0);
        assert!(!p.matches(&t3.to_csr()));
        // Same entries, one more column: no match.
        let mut t4 = Triplets::new(3, 4);
        for &(r, c, v) in t.entries() {
            t4.push(r, c, v);
        }
        assert!(!p.matches(&t4.to_csr()));
    }

    #[test]
    fn density_counts_stored_fraction() {
        let mut t = Triplets::new(4, 5);
        t.push(0, 0, 1.0);
        t.push(3, 4, 2.0);
        assert!((t.to_csr().density() - 2.0 / 20.0).abs() < 1e-15);
        assert_eq!(Triplets::<f64>::new(0, 0).to_csr().density(), 0.0);
    }
}
