//! Supernode detection and the supernodal panel factorization kernel.
//!
//! A **supernode** is a run of consecutive pivot columns whose `L`/`U`
//! fill patterns (nearly) coincide. Grouping them lets the sparse LU
//! replace its scalar axpy inner loops with dense panel operations: the
//! update a factored supernode applies to a later panel is a small
//! dense triangular solve followed by a GEMM, which this module routes
//! through the cache-blocked [`crate::gemm`] micro-kernel — the sparse
//! path inherits the dense kernels' throughput.
//!
//! Detection is **relaxed**: adjacent columns whose patterns differ are
//! still merged while the explicit-zero padding this introduces stays
//! below a graduated fraction of the panel's dense footprint (see
//! [`relax_denom`] — narrow panels tolerate more). Padding is
//! numerically inert — a padded position is a structural zero, every
//! product it enters has a zero factor, so it stays exactly `±0.0`
//! through the whole factorization and is discarded on gather.
//! Detection also fixes what the kernel needs of each supernode — its
//! tail and its sorted source list — so a refactor derives no
//! structure.
//!
//! The numeric kernel [`factor_supernodal`] is an up-looking *blocked
//! row* factorization: each panel of rows is scattered into a dense
//! workspace, updated by every earlier supernode it touches (triangular
//! solve + GEMM + scatter), then eliminated in place. It reads the
//! block's pattern from the flat [`FlatRows`] layout the sparse LU
//! stores and writes the factor values straight into that layout's
//! slots, where the caller's forward/backward substitution walks them.
//! Rows that picked nothing up from a source are left out of its GEMM,
//! and a small update gathers a row's tail once, subtracts contiguously
//! and scatters it back once: every entry still sees the same
//! operations in the same order, so the factors are the same bits as a
//! per-row kernel's (`oracle`, under test).

use crate::budget::{BudgetError, SolveGuard};
use crate::gemm::gemm_chunk;
use crate::scalar::Scalar;

/// Columns merged into one supernode at most. Bounds the dense row
/// workspace (`width × block-dim`) and keeps the in-panel elimination's
/// O(w²·support) term small next to the GEMM-routed source updates.
pub(crate) const MAX_SUPERNODE_WIDTH: usize = 64;

/// Graduated relaxation: the explicit-zero padding fraction a merge may
/// introduce, as `1/denom` of the panel's dense footprint. Narrow
/// panels tolerate proportionally more padding — they are scalar-bound
/// either way, and widening them is what lets the GEMM kernel engage —
/// while wide panels already amortize well and should stay tight.
/// Padding costs flops only, never storage: the gathered `l_vals` /
/// `u_vals` follow the exact symbolic pattern.
const fn relax_denom(width: usize) -> usize {
    match width {
        0..=8 => 2,
        9..=24 => 4,
        _ => 8,
    }
}

/// Source updates at or below this flop count skip the blocked GEMM
/// kernel and scatter the product directly into the row workspace: at
/// this size the kernel's workspace resize and extra scatter pass
/// outweigh the arithmetic.
const DIRECT_UPDATE_FLOPS: usize = 16384;

/// Rows of indices stored flat, CSR-style without values: row `i` is
/// `idx[ptr[i] .. ptr[i + 1]]`. The sparse LU keeps every pattern it
/// walks in this form — one pointer array and one index array instead
/// of a vector per row.
#[derive(Clone, Debug)]
pub(crate) struct FlatRows<E = u32> {
    ptr: Vec<usize>,
    idx: Vec<E>,
}

impl<E: Copy> FlatRows<E> {
    /// No rows.
    pub(crate) fn new() -> Self {
        Self {
            ptr: vec![0],
            idx: Vec::new(),
        }
    }

    /// Appends one row.
    pub(crate) fn push_row(&mut self, row: impl IntoIterator<Item = E>) {
        self.idx.extend(row);
        self.ptr.push(self.idx.len());
    }

    /// Positions of row `i` in the index (and any aligned value) array.
    #[inline]
    pub(crate) fn span(&self, i: usize) -> core::ops::Range<usize> {
        self.ptr[i]..self.ptr[i + 1]
    }

    /// Positions of rows `rows` in the index array.
    #[inline]
    pub(crate) fn slots(&self, rows: core::ops::Range<usize>) -> core::ops::Range<usize> {
        self.ptr[rows.start]..self.ptr[rows.end]
    }

    /// Row `i`.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[E] {
        &self.idx[self.span(i)]
    }

    /// Stored indices over all rows.
    pub(crate) fn nnz(&self) -> usize {
        self.idx.len()
    }

    /// Rows `rows` as a view whose spans start at 0: the view's row `r`
    /// is this row `rows.start + r`, and its spans index a value slice
    /// cut at [`FlatRows::slots`]`(rows)`.
    pub(crate) fn rows(&self, rows: core::ops::Range<usize>) -> RowsRef<'_, E> {
        let slots = self.slots(rows.clone());
        RowsRef {
            ptr: &self.ptr[rows.start..=rows.end],
            base: slots.start,
            idx: &self.idx[slots],
        }
    }
}

/// A run of consecutive rows of a [`FlatRows`], re-based to start at
/// slot 0 (see [`FlatRows::rows`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct RowsRef<'a, E = u32> {
    ptr: &'a [usize],
    base: usize,
    idx: &'a [E],
}

impl<E> RowsRef<'_, E> {
    /// Slots of row `r`, relative to the first row of the view.
    #[inline]
    pub(crate) fn span(&self, r: usize) -> core::ops::Range<usize> {
        self.ptr[r] - self.base..self.ptr[r + 1] - self.base
    }

    /// The index at slot `p`.
    #[inline]
    pub(crate) fn at(&self, p: usize) -> &E {
        &self.idx[p]
    }

    /// Row `r`.
    #[inline]
    pub(crate) fn row(&self, r: usize) -> &[E] {
        &self.idx[self.span(r)]
    }
}

/// Column grouping of one diagonal block's fill pattern into
/// supernodes, plus what the numeric kernel needs of each supernode:
/// its structural tail (the union of its rows' `U` columns beyond the
/// panel) and its sources (the earlier supernodes its rows' `L`
/// reaches). Both are fixed by the pattern, so they are computed once
/// here and never during a refactor.
#[derive(Clone, Debug)]
pub struct SupernodePartition {
    /// Supernode `s` spans columns `sn_ptr[s] .. sn_ptr[s+1]`.
    sn_ptr: Vec<usize>,
    /// Per supernode: sorted union of `U` columns beyond the panel.
    tails: FlatRows,
    /// Per supernode: `(t, first)` for every earlier supernode `t` that
    /// some row of the panel has an `L` entry in, ascending in `t`, with
    /// `first` the smallest such column of `t` over the panel's rows.
    sources: FlatRows<(u32, u32)>,
}

/// Sorted merge of `a` and `b`, dropping `skip` and duplicates.
fn merge_sorted(a: &[usize], b: &[usize], skip: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let next = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x <= y => {
                i += 1;
                if x == y {
                    j += 1;
                }
                x
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (_, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => break,
        };
        if next != skip {
            out.push(next);
        }
    }
    out
}

impl SupernodePartition {
    /// Partitions the columns of one block's fill pattern (`l_cols`
    /// strictly-lower, `u_cols` diagonal-first, both block-local and
    /// ascending) into relaxed supernodes. Block dimensions must fit in
    /// `u32`, as the sparse LU's analysis checks.
    #[must_use]
    pub fn detect(l_cols: &[Vec<usize>], u_cols: &[Vec<usize>]) -> Self {
        let nb = u_cols.len();
        let mut sn_ptr = vec![0usize];
        let mut tails = FlatRows::new();
        if nb == 0 {
            return Self {
                sn_ptr,
                tails,
                sources: FlatRows::new(),
            };
        }
        // Running state of the open supernode [js .. i): union U tail
        // beyond the panel, union L columns before the panel, and the
        // count of structural entries inside the panel's dense regions.
        let mut js = 0usize;
        let mut tail: Vec<usize> = u_cols[js].iter().skip(1).copied().collect();
        let mut lunion: Vec<usize> = l_cols[js].clone();
        let mut entries = u_cols[js].len() + l_cols[js].len();
        for i in 1..=nb {
            let close = if i == nb {
                true
            } else {
                let w2 = i - js + 1;
                if w2 > MAX_SUPERNODE_WIDTH {
                    true
                } else {
                    // Cost of admitting column i: padding of the merged
                    // panel (dense footprint minus structural entries).
                    let tail2 = merge_sorted(&tail, &u_cols[i][1..], i);
                    let lunion2 = merge_sorted(&lunion, &l_cols[i], usize::MAX)
                        .into_iter()
                        .filter(|&c| c < js)
                        .collect::<Vec<_>>();
                    let entries2 = entries + u_cols[i].len() + l_cols[i].len();
                    let dense2 = w2 * (w2 + tail2.len()) + w2 * lunion2.len();
                    let padding = dense2.saturating_sub(entries2);
                    if padding * relax_denom(w2) < dense2 {
                        tail = tail2;
                        lunion = lunion2;
                        entries = entries2;
                        false
                    } else {
                        true
                    }
                }
            };
            if close {
                sn_ptr.push(i);
                tails.push_row(tail.iter().map(|&c| c as u32));
                if i < nb {
                    js = i;
                    tail = u_cols[js].iter().skip(1).copied().collect();
                    lunion = l_cols[js].clone();
                    entries = u_cols[js].len() + l_cols[js].len();
                }
            }
        }
        // Sources: the supernodes the panel's L entries before the panel
        // fall in, ascending, each with the smallest such column. `seen`
        // stamps a supernode with the panel that last listed it.
        let count = sn_ptr.len() - 1;
        let mut owner = vec![0usize; nb];
        for s in 0..count {
            owner[sn_ptr[s]..sn_ptr[s + 1]].fill(s);
        }
        let mut sources = FlatRows::new();
        let mut seen = vec![usize::MAX; count];
        let mut first = vec![0usize; count];
        let mut touched: Vec<usize> = Vec::new();
        for s in 0..count {
            let js = sn_ptr[s];
            touched.clear();
            for row in &l_cols[js..sn_ptr[s + 1]] {
                for &c in row.iter().take_while(|&&c| c < js) {
                    let t = owner[c];
                    if seen[t] != s {
                        seen[t] = s;
                        first[t] = c;
                        touched.push(t);
                    } else if c < first[t] {
                        first[t] = c;
                    }
                }
            }
            touched.sort_unstable();
            sources.push_row(touched.iter().map(|&t| (t as u32, first[t] as u32)));
        }
        Self {
            sn_ptr,
            tails,
            sources,
        }
    }

    /// Number of supernodes.
    #[must_use]
    pub fn count(&self) -> usize {
        self.sn_ptr.len() - 1
    }

    /// Number of columns partitioned.
    pub(crate) fn dim(&self) -> usize {
        self.sn_ptr.last().copied().unwrap_or(0)
    }

    /// Column range of supernode `s`.
    #[must_use]
    pub fn range(&self, s: usize) -> core::ops::Range<usize> {
        self.sn_ptr[s]..self.sn_ptr[s + 1]
    }

    /// Width (column count) of supernode `s`.
    #[must_use]
    pub fn width(&self, s: usize) -> usize {
        self.sn_ptr[s + 1] - self.sn_ptr[s]
    }

    /// Supernode owning column `col`.
    #[must_use]
    pub fn owner_of(&self, col: usize) -> usize {
        self.sn_ptr.partition_point(|&p| p <= col) - 1
    }

    /// Sorted union of the `U` columns of supernode `s` beyond its
    /// panel.
    #[must_use]
    pub fn tail(&self, s: usize) -> &[u32] {
        self.tails.row(s)
    }

    /// The earlier supernodes panel `s` is updated by, ascending, each
    /// with the first of its columns any row of the panel touches.
    pub(crate) fn sources(&self, s: usize) -> &[(u32, u32)] {
        self.sources.row(s)
    }

    /// Width of the widest supernode (0 for an empty block).
    #[must_use]
    pub fn max_width(&self) -> usize {
        (0..self.count()).map(|s| self.width(s)).max().unwrap_or(0)
    }
}

/// Failure of one diagonal block's numeric factorization, in
/// block-local coordinates (the caller owns the permutations needed to
/// name the original unknown).
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum BlockFactorError {
    /// Zero or non-finite static pivot at this block-local index.
    Singular(usize),
    /// A [`crate::SolveBudget`] guard tripped between panels.
    Budget(BudgetError),
}

/// Supernodal up-looking numeric factorization of one diagonal block.
///
/// `l`/`u` are the block's fill pattern (block-local columns, `U` rows
/// diagonal first) and `l_vals`/`u_vals` receive the factor values at
/// the pattern's slots. `scatter(i, row)` writes the matrix entries of
/// block row `i` into `row`, a dense zeroed row over the block's
/// columns. The budget `guard` is polled once per panel, so
/// cancellation latency is one panel's work. On an error the values
/// are unspecified.
pub(crate) fn factor_supernodal<T: Scalar>(
    sn: &SupernodePartition,
    l: RowsRef<'_>,
    u: RowsRef<'_>,
    mut scatter: impl FnMut(usize, &mut [T]),
    l_vals: &mut [T],
    u_vals: &mut [T],
    guard: &SolveGuard,
) -> Result<(), BlockFactorError> {
    let nb = sn.dim();
    let wmax = sn.max_width();
    if nb == 0 {
        return Ok(());
    }
    // Dense U panels of already-factored supernodes, kept for the
    // triangular solves and GEMMs of later panels. Panel `s` stores
    // `width(s)` rows of stride `width(s) + tail(s).len()`: the upper
    // triangle of the panel's own columns, then the tail columns. All
    // panels live in one flat buffer (one allocation instead of one
    // per supernode); only the upper triangle and tail slots are ever
    // read, and every read position is written when its panel factors.
    let mut poff = Vec::with_capacity(sn.count());
    let mut panel_total = 0usize;
    for s in 0..sn.count() {
        poff.push(panel_total);
        panel_total += sn.width(s) * (sn.width(s) + sn.tail(s).len());
    }
    let mut panel_store = vec![T::zero(); panel_total];
    // Row workspace: the current panel's rows, dense over the block.
    let mut w = vec![T::zero(); wmax * nb];
    // The dense L rows of the panel rows active against the current
    // source, packed (row `k` belongs to panel row `active[k]`), and
    // their GEMM product, and the GEMM's packed-B scratch.
    let mut ltmp = vec![T::zero(); wmax * wmax];
    let mut gtmp: Vec<T> = Vec::new();
    let mut bpack: Vec<T> = Vec::new();
    // Per-panel-row cursor into the L slots (gather position).
    let mut lpos = vec![0usize; wmax];
    // Panel rows that picked something up from the current source, in
    // row order. Rows land in a panel whose source list is the *union*
    // over all its rows, so many (row, source) pairs are structurally
    // empty: they skip the dense solve, and the tail update leaves them
    // out rather than multiplying zeros.
    let mut active: Vec<usize> = Vec::with_capacity(wmax);
    // One active row's tail, gathered for a small update.
    let mut tail_buf: Vec<T> = Vec::new();

    for s in 0..sn.count() {
        guard.check().map_err(BlockFactorError::Budget)?;
        let js = sn.range(s).start;
        let je = sn.range(s).end;
        let width = je - js;
        let tail_s = sn.tail(s);
        guard
            .check_alloc(width * (width + tail_s.len()) * std::mem::size_of::<T>())
            .map_err(BlockFactorError::Budget)?;
        // Scatter the panel's matrix rows into the workspace.
        for r in 0..width {
            scatter(js + r, &mut w[r * nb..(r + 1) * nb]);
            lpos[r] = l.span(js + r).start;
        }

        for &(t, first_col) in sn.sources(s) {
            let (t, first_col) = (t as usize, first_col as usize);
            let jt = sn.range(t).start;
            let wt = sn.width(t);
            let tail_t = sn.tail(t);
            let stride_t = wt + tail_t.len();
            let panel_t = &panel_store[poff[t]..poff[t] + wt * stride_t];
            let off = first_col - jt;
            let sw = wt - off;
            active.clear();
            for r in 0..width {
                let seg = &mut w[r * nb + first_col..r * nb + jt + wt];
                let lend = l.span(js + r).end;
                if seg.iter().all(|v| v.is_zero()) {
                    // This row accumulated nothing over the source's
                    // columns: its L values there are exactly zero
                    // (including any structural-only slots), and it
                    // contributes nothing to the tail update.
                    while lpos[r] < lend && (*l.at(lpos[r]) as usize) < jt + wt {
                        l_vals[lpos[r]] = T::zero();
                        lpos[r] += 1;
                    }
                    continue;
                }
                // Dense triangular solve against the source's upper
                // block, L(r, suffix) = W(r, suffix) · U(suffix, suffix)⁻¹,
                // consuming (zeroing) the workspace columns as the scalar
                // up-looking elimination would. Entry `c` takes its
                // subtractions in ascending `d`, the column-by-column
                // order, while U is read along its rows.
                let lrow = &mut ltmp[active.len() * sw..(active.len() + 1) * sw];
                active.push(r);
                lrow.copy_from_slice(seg);
                seg.fill(T::zero());
                for d in 0..sw {
                    let urow = &panel_t[(off + d) * stride_t + off..(off + d) * stride_t + wt];
                    let lv = lrow[d] / urow[d];
                    lrow[d] = lv;
                    for (acc, &uv) in lrow[d + 1..].iter_mut().zip(&urow[d + 1..]) {
                        *acc -= lv * uv;
                    }
                }
                // Gather the freshly eliminated L values of this row.
                while lpos[r] < lend && (*l.at(lpos[r]) as usize) < jt + wt {
                    l_vals[lpos[r]] = lrow[*l.at(lpos[r]) as usize - first_col];
                    lpos[r] += 1;
                }
            }
            // Tail update: W(P, tail_t) −= L(P, suffix) · U(suffix, tail_t)
            // over the active rows P. A GEMM row's result depends on that
            // row alone, so leaving idle rows out changes no value.
            let nd = tail_t.len();
            let na = active.len();
            if nd == 0 || na == 0 {
                continue;
            }
            if width * sw * nd <= DIRECT_UPDATE_FLOPS {
                // Small update: the blocked kernel's workspace resize and
                // scatter pass cost more than the arithmetic. Gather the
                // row's tail once, subtract each L entry's U row from it
                // contiguously, and scatter it back once.
                for (lrow, &r) in ltmp.chunks_exact(sw).zip(&active) {
                    let wrow = &mut w[r * nb..(r + 1) * nb];
                    tail_buf.clear();
                    tail_buf.extend(tail_t.iter().map(|&tc| wrow[tc as usize]));
                    for (d, &lv) in lrow.iter().enumerate() {
                        if lv.is_zero() {
                            continue;
                        }
                        let base = (off + d) * stride_t + wt;
                        for (x, &uv) in tail_buf.iter_mut().zip(&panel_t[base..base + nd]) {
                            *x -= lv * uv;
                        }
                    }
                    for (&tc, &x) in tail_t.iter().zip(&tail_buf) {
                        wrow[tc as usize] = x;
                    }
                }
            } else {
                gtmp.clear();
                gtmp.resize(na * nd, T::zero());
                gemm_chunk(
                    &mut gtmp,
                    nd,
                    0,
                    &ltmp[..na * sw],
                    sw,
                    0,
                    &panel_t[off * stride_t..],
                    stride_t,
                    wt,
                    na,
                    sw,
                    nd,
                    -T::one(),
                    &mut bpack,
                );
                for (grow, &r) in gtmp.chunks_exact(nd).zip(&active) {
                    let wrow = &mut w[r * nb..(r + 1) * nb];
                    for (&tc, &g) in tail_t.iter().zip(grow) {
                        wrow[tc as usize] += g;
                    }
                }
            }
        }

        // In-panel right-looking elimination over the panel's own
        // columns and its tail support.
        for k in 0..width {
            let (top, rest) = w.split_at_mut((k + 1) * nb);
            let krow = &top[k * nb..(k + 1) * nb];
            let piv = krow[js + k];
            if !(piv.abs_val() > 0.0) || !piv.abs_val().is_finite() {
                return Err(BlockFactorError::Singular(js + k));
            }
            for rrow in rest.chunks_exact_mut(nb).take(width - k - 1) {
                let lv = rrow[js + k] / piv;
                rrow[js + k] = lv;
                if lv.is_zero() {
                    continue;
                }
                for (x, &kv) in rrow[js + k + 1..je].iter_mut().zip(&krow[js + k + 1..je]) {
                    *x -= lv * kv;
                }
                for &tc in tail_s {
                    rrow[tc as usize] -= lv * krow[tc as usize];
                }
            }
        }

        // Build this supernode's dense U panel for later consumers
        // (upper triangle of the panel columns, then the tail), write
        // the factor values straight into the pattern's slots, and wipe
        // the workspace for the next panel.
        let stride = width + tail_s.len();
        let panel = &mut panel_store[poff[s]..poff[s] + width * stride];
        for (k, prow) in panel.chunks_exact_mut(stride).enumerate() {
            let i = js + k;
            let wrow = &mut w[k * nb..(k + 1) * nb];
            prow[k..width].copy_from_slice(&wrow[i..je]);
            for (p, &tc) in prow[width..].iter_mut().zip(tail_s) {
                *p = wrow[tc as usize];
            }
            let us = u.span(i);
            for (v, &c) in u_vals[us.clone()].iter_mut().zip(u.row(i)) {
                *v = wrow[c as usize];
            }
            // Remaining L entries of this row live inside the panel.
            for p in lpos[k]..l.span(i).end {
                l_vals[p] = wrow[*l.at(p) as usize];
            }
            wrow[js..je].fill(T::zero());
            for &tc in tail_s {
                wrow[tc as usize] = T::zero();
            }
        }
    }
    Ok(())
}

/// The per-row kernel this module shipped before its patterns went
/// flat, kept verbatim (tails widened back to `usize`) as the oracle the
/// flat kernel is pinned against bit for bit: it takes each row's
/// matrix entries as a `(col, value)` list and rebuilds and sorts every
/// panel's source list per call.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// Supernodal up-looking numeric factorization of one diagonal block.
    ///
    /// `rows[i]` holds block-local `(col, value)` entries of row `i`;
    /// `l_cols`/`u_cols` are the block's fill pattern and `l_vals`/`u_vals`
    /// (same shapes) receive the factor values. The budget `guard` is
    /// polled once per panel, so cancellation latency is one panel's work.
    pub(crate) fn factor_supernodal<T: Scalar>(
        sn: &SupernodePartition,
        l_cols: &[Vec<usize>],
        u_cols: &[Vec<usize>],
        rows: &[Vec<(usize, T)>],
        l_vals: &mut [Vec<T>],
        u_vals: &mut [Vec<T>],
        guard: &SolveGuard,
    ) -> Result<(), BlockFactorError> {
        let nb = l_cols.len();
        let wmax = sn.max_width();
        if nb == 0 {
            return Ok(());
        }
        // Dense U panels of already-factored supernodes, kept for the
        // triangular solves and GEMMs of later panels. Panel `s` stores
        // `width(s)` rows of stride `width(s) + tail(s).len()`: the upper
        // triangle of the panel's own columns, then the tail columns. All
        // panels live in one flat buffer (one allocation instead of one
        // per supernode); only the upper triangle and tail slots are ever
        // read, and every read position is written when its panel factors.
        let mut poff = Vec::with_capacity(sn.count());
        let mut panel_total = 0usize;
        for s in 0..sn.count() {
            poff.push(panel_total);
            panel_total += sn.width(s) * (sn.width(s) + sn.tail(s).len());
        }
        let mut panel_store = vec![T::zero(); panel_total];
        // Row workspace: the current panel's rows, dense over the block.
        let mut w = vec![T::zero(); wmax * nb];
        // Scratch for the per-source dense L panel and GEMM result.
        let mut ltmp = vec![T::zero(); wmax * wmax];
        let mut gtmp: Vec<T> = Vec::new();
        let mut bpack: Vec<T> = Vec::new();
        // Per-panel-row cursor into `l_cols` (gather position).
        let mut lpos = vec![0usize; wmax];
        // Per-panel-row flag: did this row pick up anything from the
        // current source? Rows land in a panel whose source list is the
        // *union* over all its rows, so many (row, source) pairs are
        // structurally empty and skip the dense solve entirely.
        let mut active = vec![false; wmax];
        // (source supernode, first touched column) scratch.
        let mut sources: Vec<(usize, usize)> = Vec::new();

        for s in 0..sn.count() {
            guard.check().map_err(BlockFactorError::Budget)?;
            let js = sn.range(s).start;
            let je = sn.range(s).end;
            let width = je - js;
            guard
                .check_alloc(width * (width + sn.tail(s).len()) * std::mem::size_of::<T>())
                .map_err(BlockFactorError::Budget)?;
            // Scatter the panel's structural rows into the workspace.
            for r in 0..width {
                let wrow = &mut w[r * nb..(r + 1) * nb];
                for &(c, v) in &rows[js + r] {
                    wrow[c] = v;
                }
                lpos[r] = 0;
            }
            // Source supernodes this panel depends on, ascending, with the
            // first column any panel row touches in each.
            sources.clear();
            for r in 0..width {
                for &c in &l_cols[js + r] {
                    if c < js {
                        sources.push((sn.owner_of(c), c));
                    }
                }
            }
            sources.sort_unstable();
            sources.dedup_by_key(|&mut (t, _)| t);

            for &(t, first_col) in &sources {
                let jt = sn.range(t).start;
                let wt = sn.width(t);
                let tail_t: Vec<usize> = sn.tail(t).iter().map(|&c| c as usize).collect();
                let stride_t = wt + tail_t.len();
                let panel_t = &panel_store[poff[t]..poff[t] + wt * stride_t];
                let off = first_col - jt;
                let sw = wt - off;
                // Dense triangular solve against the source's upper block:
                // L(P, suffix) = W(P, suffix) · U(suffix, suffix)⁻¹,
                // consuming (zeroing) the workspace columns as the scalar
                // up-looking elimination would.
                let mut any_active = false;
                for r in 0..width {
                    let wrow = &mut w[r * nb..(r + 1) * nb];
                    let lrow = &mut ltmp[r * sw..(r + 1) * sw];
                    if wrow[jt + off..jt + off + sw].iter().all(|v| v.is_zero()) {
                        // This row accumulated nothing over the source's
                        // columns: its L values there are exactly zero
                        // (including any structural-only slots), so the
                        // dense solve is skipped and the row contributes
                        // nothing to the tail update.
                        active[r] = false;
                        for lv in lrow.iter_mut() {
                            *lv = T::zero();
                        }
                    } else {
                        active[r] = true;
                        any_active = true;
                        for cr in 0..sw {
                            let mut acc = wrow[jt + off + cr];
                            for (d, &lv) in lrow.iter().enumerate().take(cr) {
                                acc -= lv * panel_t[(off + d) * stride_t + off + cr];
                            }
                            let lv = acc / panel_t[(off + cr) * stride_t + off + cr];
                            lrow[cr] = lv;
                            wrow[jt + off + cr] = T::zero();
                        }
                    }
                    // Gather the freshly eliminated L values of this row.
                    let lc = &l_cols[js + r];
                    while lpos[r] < lc.len() && lc[lpos[r]] < jt + off + sw {
                        let c = lc[lpos[r]];
                        l_vals[js + r][lpos[r]] = lrow[c - (jt + off)];
                        lpos[r] += 1;
                    }
                }
                // Tail update: W(P, tail_t) −= L(P, suffix) · U(suffix, tail_t).
                let nd = tail_t.len();
                if nd > 0 && any_active {
                    if width * sw * nd <= DIRECT_UPDATE_FLOPS {
                        // Small update: the blocked kernel's workspace
                        // resize and scatter pass cost more than the
                        // arithmetic. Apply the product straight into the
                        // workspace rows instead.
                        for r in 0..width {
                            if !active[r] {
                                continue;
                            }
                            let lrow = &ltmp[r * sw..(r + 1) * sw];
                            let wrow = &mut w[r * nb..(r + 1) * nb];
                            for (d, &lv) in lrow.iter().enumerate() {
                                if lv.is_zero() {
                                    continue;
                                }
                                let base = (off + d) * stride_t + wt;
                                let brow = &panel_t[base..base + nd];
                                for (q, &tc) in tail_t.iter().enumerate() {
                                    wrow[tc] -= lv * brow[q];
                                }
                            }
                        }
                    } else {
                        gtmp.clear();
                        gtmp.resize(width * nd, T::zero());
                        gemm_chunk(
                            &mut gtmp,
                            nd,
                            0,
                            &ltmp[..width * sw],
                            sw,
                            0,
                            &panel_t[off * stride_t..],
                            stride_t,
                            wt,
                            width,
                            sw,
                            nd,
                            -T::one(),
                            &mut bpack,
                        );
                        for r in 0..width {
                            if !active[r] {
                                continue;
                            }
                            let grow = &gtmp[r * nd..(r + 1) * nd];
                            let wrow = &mut w[r * nb..(r + 1) * nb];
                            for (q, &tc) in tail_t.iter().enumerate() {
                                wrow[tc] += grow[q];
                            }
                        }
                    }
                }
            }

            // In-panel right-looking elimination over the panel's own
            // columns and its tail support.
            let tail_s: Vec<usize> = sn.tail(s).iter().map(|&c| c as usize).collect();
            for k in 0..width {
                let (top, rest) = w.split_at_mut((k + 1) * nb);
                let krow = &top[k * nb..(k + 1) * nb];
                let piv = krow[js + k];
                if !(piv.abs_val() > 0.0) || !piv.abs_val().is_finite() {
                    return Err(BlockFactorError::Singular(js + k));
                }
                for rrow in rest.chunks_exact_mut(nb).take(width - k - 1) {
                    let lv = rrow[js + k] / piv;
                    rrow[js + k] = lv;
                    if lv.is_zero() {
                        continue;
                    }
                    for c in js + k + 1..je {
                        rrow[c] -= lv * krow[c];
                    }
                    for &tc in &tail_s {
                        rrow[tc] -= lv * krow[tc];
                    }
                }
            }

            // Build this supernode's dense U panel for later consumers
            // (upper triangle of the panel columns, then the tail), gather
            // the factor values into the scalar layout, and wipe the
            // workspace for the next panel.
            let stride = width + tail_s.len();
            let panel = &mut panel_store[poff[s]..poff[s] + width * stride];
            for k in 0..width {
                let wrow = &w[k * nb..(k + 1) * nb];
                let prow = &mut panel[k * stride..(k + 1) * stride];
                prow[k..width].copy_from_slice(&wrow[js + k..js + width]);
                for (q, &tc) in tail_s.iter().enumerate() {
                    prow[width + q] = wrow[tc];
                }
            }
            for k in 0..width {
                let i = js + k;
                let wrow = &w[k * nb..(k + 1) * nb];
                for (slot, &c) in u_cols[i].iter().enumerate() {
                    u_vals[i][slot] = wrow[c];
                }
                // Remaining L entries of this row live inside the panel.
                let lc = &l_cols[i];
                while lpos[k] < lc.len() {
                    l_vals[i][lpos[k]] = wrow[lc[lpos[k]]];
                    lpos[k] += 1;
                }
            }
            for k in 0..width {
                let wrow = &mut w[k * nb..(k + 1) * nb];
                for c in js..je {
                    wrow[c] = T::zero();
                }
                for &tc in &tail_s {
                    wrow[tc] = T::zero();
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_columns_merge_into_one_supernode() {
        // Three columns with perfectly nested patterns (a dense 3×3
        // trailing block): one supernode.
        let l_cols = vec![vec![], vec![0], vec![0, 1]];
        let u_cols = vec![vec![0, 1, 2], vec![1, 2], vec![2]];
        let sn = SupernodePartition::detect(&l_cols, &u_cols);
        assert_eq!(sn.count(), 1);
        assert_eq!(sn.range(0), 0..3);
        assert_eq!(sn.max_width(), 3);
        assert!(sn.tail(0).is_empty());
    }

    #[test]
    fn disjoint_patterns_stay_separate() {
        // Two structurally independent 2-chains: the chains merge
        // internally (identical patterns), but even the narrow-width
        // relaxation must not merge across the gap — a fully disjoint
        // pair is pure padding.
        let l_cols = vec![vec![], vec![0], vec![], vec![2]];
        let u_cols = vec![vec![0, 1], vec![1], vec![2, 3], vec![3]];
        let sn = SupernodePartition::detect(&l_cols, &u_cols);
        assert_eq!(sn.count(), 2, "expected two supernodes, got {sn:?}");
        assert_eq!(sn.owner_of(1), 0);
        assert_eq!(sn.owner_of(2), 1);
    }

    #[test]
    fn width_cap_is_respected() {
        // A fully dense pattern wants one huge supernode; the cap must
        // split it.
        let n = MAX_SUPERNODE_WIDTH * 2 + 5;
        let l_cols: Vec<Vec<usize>> = (0..n).map(|i| (0..i).collect()).collect();
        let u_cols: Vec<Vec<usize>> = (0..n).map(|i| (i..n).collect()).collect();
        let sn = SupernodePartition::detect(&l_cols, &u_cols);
        assert!(sn.max_width() <= MAX_SUPERNODE_WIDTH);
        let covered: usize = (0..sn.count()).map(|s| sn.width(s)).sum();
        assert_eq!(covered, n);
    }

    #[test]
    fn tails_are_sorted_unions() {
        // Columns 0,1 share most structure; tails must be the union of
        // their beyond-panel U columns.
        let l_cols = vec![vec![], vec![0], vec![0, 1], vec![1, 2]];
        let u_cols = vec![vec![0, 1, 2, 3], vec![1, 2, 3], vec![2, 3], vec![3]];
        let sn = SupernodePartition::detect(&l_cols, &u_cols);
        for s in 0..sn.count() {
            let t = sn.tail(s);
            assert!(t.windows(2).all(|p| p[0] < p[1]), "tail not sorted: {t:?}");
            assert!(t.iter().all(|&c| c as usize >= sn.range(s).end));
        }
    }

    #[test]
    fn sources_are_the_first_touched_column_of_each_earlier_supernode() {
        // A structurally symmetric pattern with gaps, so supernodes are
        // narrow and panels touch earlier supernodes partially.
        let n = 40;
        let edge = |i: usize, j: usize| (i * 7 + j * 3) % 5 == 0 || i.abs_diff(j) == 1;
        let l_cols: Vec<Vec<usize>> = (0..n)
            .map(|i| (0..i).filter(|&j| edge(i, j)).collect())
            .collect();
        let u_cols: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                std::iter::once(i)
                    .chain((i + 1..n).filter(|&j| edge(j, i)))
                    .collect()
            })
            .collect();
        let sn = SupernodePartition::detect(&l_cols, &u_cols);
        assert!(sn.count() > 1 && sn.count() < n, "{sn:?}");
        assert_eq!(sn.dim(), n);
        for c in 0..n {
            assert!(sn.range(sn.owner_of(c)).contains(&c));
        }
        for s in 0..sn.count() {
            // Brute force: every earlier supernode any panel row's L
            // reaches, with the smallest column reached.
            let js = sn.range(s).start;
            let mut want: Vec<(u32, u32)> = Vec::new();
            for t in 0..s {
                let first = sn
                    .range(s)
                    .flat_map(|r| l_cols[r].iter().copied())
                    .filter(|&c| sn.range(t).contains(&c) && c < js)
                    .min();
                if let Some(c) = first {
                    want.push((t as u32, c as u32));
                }
            }
            assert_eq!(sn.sources(s), &want[..], "supernode {s}");
        }
    }

    #[test]
    fn merge_sorted_drops_skip_and_duplicates() {
        assert_eq!(merge_sorted(&[1, 3, 5], &[2, 3, 6], 5), vec![1, 2, 3, 6]);
        assert_eq!(merge_sorted(&[], &[4], 4), Vec::<usize>::new());
        assert_eq!(merge_sorted(&[7], &[], usize::MAX), vec![7]);
    }
}
