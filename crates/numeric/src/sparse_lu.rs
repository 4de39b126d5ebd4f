//! Sparse direct LU with a reusable symbolic factorization.
//!
//! Two numeric paths share one public interface:
//!
//! * **KLU-class path** ([`SymbolicLu::analyze`], the default) — the
//!   matrix is first permuted to block upper triangular form by
//!   [`crate::BtfForm`] (maximum transversal + Tarjan SCC), so only the
//!   irreducible diagonal blocks are factored and the off-diagonal
//!   coupling enters a block back-substitution untouched. Each diagonal
//!   block gets its own AMD fill-reducing ordering, a row-merge symbolic
//!   elimination, and a relaxed supernode partition
//!   ([`crate::supernode`]); the numeric phase factors blocks
//!   independently — in parallel across threads with bit-identical
//!   results — and routes supernodal panel updates through the
//!   cache-blocked GEMM micro-kernel in [`crate::gemm`].
//! * **Reference path** ([`SymbolicLu::analyze_reference`]) — the
//!   original scalar up-looking Doolittle factorization over a single
//!   global AMD ordering (with structurally-zero diagonals deferred).
//!   It is retained verbatim as the differential oracle the KLU path is
//!   pinned against.
//!
//! The phases are the two classic ones: `analyze*` does one-time
//! structural work; [`SparseLu::factor_with`] / [`SparseLu::refactor`]
//! re-run **only** the numeric phase (transient stepping, Newton
//! iterations), sharing the pattern via [`std::sync::Arc`].
//!
//! On the KLU path the analysis decides everything structural, so a
//! refactor only does arithmetic. The pattern is stored flat — row
//! pointers and `u32` column indices for `L`, `U` and the
//! off-block-diagonal coupling — and the factor is one value array for
//! each, aligned with it. A scatter map sends every stored entry of the
//! analyzed matrix (by CSR position) to its block-local column or its
//! coupling slot, and every supernode carries its tail and its sorted
//! source list ([`SupernodePartition`]). A refactor walks the matrix
//! through the map, factors each block straight into its slice of the
//! value arrays, and the solves walk the same arrays. The reference
//! path keeps its per-row vectors.
//!
//! Pivoting is static in both paths. On the KLU path the BTF transversal
//! is used *structurally*: a pattern with no zero-free diagonal is
//! rejected up front as [`NumericError::StructurallySingular`], and the
//! SCC condensation fixes the block partition. The static pivot pairing
//! inside each block, however, deliberately ignores the matching —
//! augmenting paths flip diagonally dominant rows onto ±1 incidence
//! entries, which unpivoted elimination cannot survive — and instead
//! keeps every row on its own diagonal with structurally absent
//! diagonals (voltage-source rows) deferred to the end of the block,
//! exactly like the reference path. A numerically zero
//! (or non-finite) pivot surfaces as [`NumericError::Singular`] with the
//! pivot mapped back to the *original* row index, so circuit-level
//! diagnostics can name the offending unknown.
//!
//! Static pivoting can shed digits, so callers refine:
//! [`SparseLu::solve_refined`] corrects the answer against the original
//! matrix until its componentwise backward error meets
//! [`crate::REFINE_TOL`], stops halving, or has taken
//! [`crate::REFINE_MAX_ROUNDS`] corrections, and reports the rounds
//! and the final backward error ([`crate::refine`]).

use crate::amd::approximate_minimum_degree;
use crate::btf::BtfForm;
use crate::budget::{BudgetError, SolveBudget, SolveGuard};
use crate::ordering::Permutation;
use crate::partition::{map_scoped, uniform_row_blocks, ParallelConfig};
use crate::refine::{refine, Refined};
use crate::scalar::Scalar;
use crate::sparse::{CsrMatrix, CsrPattern};
use crate::supernode::{factor_supernodal, BlockFactorError, FlatRows, SupernodePartition};
use crate::{NumericError, Result};
use std::sync::Arc;

/// Sentinel for "no next column" in the symbolic merge list.
const NONE: usize = usize::MAX;

/// Tag bit of a scatter-map entry that addresses an off-block-diagonal
/// value; an untagged entry is a block-local column. The flat patterns
/// store `u32` indices, so the analysis refuses patterns whose
/// dimension or stored-entry count reaches this bit.
const OFFDIAG: u32 = 1 << 31;

/// Structural statistics of a symbolic factorization — the quantities
/// that predict numeric-phase cost and are reported by the
/// `grid_scaling` bench rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SparseLuStats {
    /// Stored entries in `L` plus `U` (unit diagonal of `L` excluded),
    /// off-diagonal coupling blocks included.
    pub factor_nnz: usize,
    /// Irreducible diagonal blocks of the BTF (1 on the reference path).
    pub num_blocks: usize,
    /// Dimension of the largest diagonal block — the quantity that
    /// actually bounds factorization cost.
    pub max_block_dim: usize,
    /// Supernodes across all blocks (every column is its own supernode
    /// on the reference path).
    pub num_supernodes: usize,
    /// Columns in the widest supernode.
    pub max_supernode_width: usize,
}

/// Reference (PR 5) symbolic data: one global symmetric ordering plus
/// the exact fill pattern, all in the permuted index space.
#[derive(Clone, Debug)]
struct RefSym {
    perm: Permutation,
    /// Per permuted row `i`: columns `j < i` of `L(i, ·)`, ascending.
    l_cols: Vec<Vec<usize>>,
    /// Per permuted row `i`: columns `j ≥ i` of `U(i, ·)`, ascending —
    /// the diagonal is always first (and always structurally present).
    u_cols: Vec<Vec<usize>>,
}

/// One BTF diagonal block: final indices `lo .. hi`, and the relaxed
/// supernode partition of its columns.
#[derive(Clone, Debug)]
struct BlockSym {
    lo: usize,
    hi: usize,
    sn: SupernodePartition,
}

/// KLU-class symbolic data: composed permutations (BTF ∘ per-block
/// AMD), the flat factor pattern, the off-block-diagonal coupling, and
/// the map that scatters each matrix entry to where a refactor needs it.
#[derive(Clone, Debug)]
struct KluSym {
    /// Final row permutation (`forward[new] = old` original row).
    rperm: Permutation,
    /// Final column permutation.
    cperm: Permutation,
    blocks: Vec<BlockSym>,
    /// Per final row: `L` columns `< i`, block-local, ascending.
    l: FlatRows,
    /// Per final row: `U` columns `≥ i`, block-local, ascending,
    /// diagonal first.
    u: FlatRows,
    /// Per final row: structural columns beyond the row's block
    /// (ascending final indices). These entries are never factored —
    /// they feed the block back-substitution.
    off: FlatRows,
    /// Per stored entry of the analyzed matrix, in CSR order: its
    /// block-local column, or [`OFFDIAG`] plus its slot in `off`.
    scatter: Vec<u32>,
    stats: SparseLuStats,
}

impl KluSym {
    /// Cuts the `L`, `U` and coupling values of final rows `rows` off
    /// the front of `vals`, whose slices start at row `rows.start`.
    fn take_rows<'a, T>(
        &self,
        rows: std::ops::Range<usize>,
        vals: &mut [&'a mut [T]; 3],
    ) -> [&'a mut [T]; 3] {
        let patterns = [&self.l, &self.u, &self.off];
        std::array::from_fn(|k| {
            let len = patterns[k].slots(rows.clone()).len();
            let (head, tail) = std::mem::take(&mut vals[k]).split_at_mut(len);
            vals[k] = tail;
            head
        })
    }
}

/// Which symbolic/numeric path a [`SymbolicLu`] encodes.
#[derive(Clone, Debug)]
enum SymRepr {
    Reference(RefSym),
    Klu(Box<KluSym>),
}

/// The reusable structural half of a sparse LU factorization.
#[derive(Clone, Debug)]
pub struct SymbolicLu {
    n: usize,
    /// The analyzed pattern, compared exactly by [`SymbolicLu::matches`].
    pattern: CsrPattern,
    repr: SymRepr,
}

/// Row-merge symbolic elimination over structural rows (sorted
/// ascending): returns the exact `(l_cols, u_cols)` fill pattern of a
/// static-pivot LU in the given order. `u_cols` rows lead with the
/// diagonal, which is inserted if structurally absent.
///
/// Row `i` starts from its own pattern and, for every `L(i, j)` in
/// ascending `j`, merges in `U(j, j+1..)`. Eisenstat–Liu symmetric
/// pruning shortens those merges: once a row `k` finds both `L(k, j)`
/// and `U(j, k)` nonzero, row `k` already holds `U(j, k+1..)`, and any
/// later row that merges `U(j, ..=k)` picks up `k` and so merges row
/// `k` in turn. Later rows therefore merge only `U(j, j+1..=k)`. The
/// patterns come out the same; the work falls from the flop count
/// towards the size of the factors on structurally symmetric blocks.
fn symbolic_merge(rows_p: &[Vec<usize>]) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let n = rows_p.len();
    let mut l_cols: Vec<Vec<usize>> = Vec::with_capacity(n);
    let mut u_cols: Vec<Vec<usize>> = Vec::with_capacity(n);
    // Per row `j`: how many leading entries of `u_cols[j]` (diagonal
    // included) later rows merge, and whether that length is already
    // pruned. Unpruned rows merge all of `u_cols[j]`.
    let mut merge_len: Vec<usize> = Vec::with_capacity(n);
    let mut pruned = vec![false; n];
    // Sorted singly-linked merge list over column indices; rebuilt
    // per row, so no reset pass is needed.
    let mut next = vec![NONE; n + 1];
    for i in 0..n {
        // Seed the list with the row's own pattern plus the diagonal.
        let mut head = NONE;
        let mut tail = NONE;
        let mut push_tail = |next: &mut Vec<usize>, c: usize| {
            if tail == NONE {
                head = c;
            } else {
                next[tail] = c;
            }
            next[c] = NONE;
            tail = c;
        };
        let mut saw_diag = false;
        for &c in &rows_p[i] {
            if c == i {
                saw_diag = true;
            }
            if !saw_diag && c > i {
                push_tail(&mut next, i);
                saw_diag = true;
            }
            push_tail(&mut next, c);
        }
        if !saw_diag {
            push_tail(&mut next, i);
        }

        // Traverse: every list column below the diagonal is an L
        // entry whose (pruned) row of U merges in behind it.
        let mut lc = Vec::new();
        let mut j = head;
        while j != NONE && j < i {
            lc.push(j);
            let mut prev = j;
            let mut cursor = next[j];
            for &c in &u_cols[j][1..merge_len[j]] {
                while cursor != NONE && cursor < c {
                    prev = cursor;
                    cursor = next[cursor];
                }
                if cursor == c {
                    prev = c;
                    cursor = next[c];
                    continue;
                }
                next[prev] = c;
                next[c] = cursor;
                prev = c;
            }
            j = next[j];
        }
        let mut uc = Vec::new();
        while j != NONE {
            uc.push(j);
            j = next[j];
        }
        debug_assert_eq!(uc.first().copied(), Some(i), "diagonal must lead U row");
        // Prune every row `j` with `L(i, j)` and `U(j, i)` both nonzero,
        // the first time such an `i` appears.
        for &j in &lc {
            if !pruned[j] {
                if let Ok(p) = u_cols[j].binary_search(&i) {
                    merge_len[j] = p + 1;
                    pruned[j] = true;
                }
            }
        }
        merge_len.push(uc.len());
        l_cols.push(lc);
        u_cols.push(uc);
    }
    (l_cols, u_cols)
}

/// Chooses the static pivot pairing for one BTF diagonal block.
///
/// Returns `(row_orig, col_orig, defer)`: block-local index `l` pairs
/// original row `row_orig[l]` with original column `col_orig[l]`, and
/// `defer[l]` marks pairs that AMD pushes to the end of the block's
/// elimination order. Whenever the block's row and column sets cover
/// the same original indices — always the case for the structurally
/// symmetric MNA patterns this crate factors — the pairing is the
/// symmetric one `(v, v)` with structurally absent diagonals deferred:
/// conductance rows pivot on their diagonally dominant entry and
/// voltage-source incidence rows pivot last, on the diagonal fill
/// their node rows eliminate into them. These are exactly the
/// reference-path semantics, applied per block. Blocks whose row and
/// column sets differ (possible for genuinely unsymmetric patterns)
/// keep the transversal pairing `(brows[l], bcols[l])`, which is
/// always structurally zero-free.
/// Postorder of a block's elimination tree. `u_cols` rows are sorted
/// and lead with the diagonal, so `u_cols[i][1]` — the first
/// off-diagonal `U` column — is the etree parent of `i`; rows whose `U`
/// pattern is just the diagonal are roots. Children and roots are
/// visited in ascending order, keeping the traversal deterministic.
///
/// Reordering a block by its postorder leaves the fill unchanged (the
/// relative order of every vertex and its ancestors is preserved) but
/// makes parent/child column chains *consecutive*, which is what
/// [`SupernodePartition::detect`] needs to find mergeable runs: a
/// fill-reducing ordering alone scatters them.
fn etree_postorder(u_cols: &[Vec<usize>]) -> Vec<usize> {
    let nb = u_cols.len();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); nb];
    let mut roots: Vec<usize> = Vec::new();
    for (i, u) in u_cols.iter().enumerate() {
        match u.get(1) {
            Some(&p) => children[p].push(i),
            None => roots.push(i),
        }
    }
    let mut post = Vec::with_capacity(nb);
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for &r in &roots {
        stack.push((r, 0));
        while let Some(top) = stack.last_mut() {
            let (v, ci) = *top;
            if ci < children[v].len() {
                top.1 += 1;
                stack.push((children[v][ci], 0));
            } else {
                post.push(v);
                stack.pop();
            }
        }
    }
    post
}

fn pair_block<T: Scalar>(
    a: &CsrMatrix<T>,
    brows: &[usize],
    bcols: &[usize],
) -> (Vec<usize>, Vec<usize>, Vec<bool>) {
    let mut sr: Vec<usize> = brows.to_vec();
    sr.sort_unstable();
    let mut sc: Vec<usize> = bcols.to_vec();
    sc.sort_unstable();
    if sr == sc {
        let defer: Vec<bool> = sr.iter().map(|&v| !a.contains(v, v)).collect();
        (sr.clone(), sr, defer)
    } else {
        let nb = brows.len();
        (brows.to_vec(), bcols.to_vec(), vec![false; nb])
    }
}

impl SymbolicLu {
    /// Analyzes `a` on the KLU-class path: BTF (maximum transversal +
    /// SCC blocks), a fill-reducing AMD ordering *per diagonal block*,
    /// row-merge symbolic elimination, and relaxed supernode detection.
    ///
    /// # Errors
    ///
    /// [`NumericError::NotSquare`] for non-square input;
    /// [`NumericError::StructurallySingular`] when the pattern has no
    /// zero-free diagonal under any permutation (the matrix is singular
    /// for every value assignment);
    /// [`NumericError::IndexOutOfRange`] when the dimension or the
    /// stored-entry count reaches 2³¹, past the flat pattern's `u32`
    /// indices.
    pub fn analyze<T: Scalar>(a: &CsrMatrix<T>) -> Result<Self> {
        let n = a.nrows();
        if a.ncols() != n {
            return Err(NumericError::NotSquare {
                rows: n,
                cols: a.ncols(),
            });
        }
        let largest = n.max(a.nnz());
        if largest >= OFFDIAG as usize {
            return Err(NumericError::IndexOutOfRange {
                index: largest,
                len: OFFDIAG as usize,
            });
        }
        let btf = BtfForm::analyze(a)?;
        let nblocks = btf.num_blocks();
        // Per-block static pivot pairing. The maximum transversal is
        // kept purely as a *structural* device — it proves the pattern
        // non-singular and fixes the block partition — but its matching
        // is a poor static pivot choice: augmenting paths happily flip
        // diagonally dominant conductance rows onto ±1 incidence
        // entries, and without numerical pivoting the resulting growth
        // destroys the factorization. Inside each block [`pair_block`]
        // therefore restores the reference-path pairing and deferral
        // whenever the block is row/column-symmetric.
        // One *global* fill-reducing ordering, applied to each
        // row/column-symmetric block as the induced order of its
        // vertices. Eliminating a subgraph in an order induced from the
        // full graph can only lose fill paths, so every such block's
        // fill is bounded by the reference path's fill on the same
        // vertices — whereas an independent per-block AMD is at the
        // mercy of tie-breaking (40% worse on a 100×100 mesh).
        let gamd = {
            let gadj = a.adjacency();
            let gdefer: Vec<bool> = (0..n).map(|i| !a.contains(i, i)).collect();
            approximate_minimum_degree(&gadj, &gdefer)
        };
        let mut rfor = vec![0usize; n];
        let mut cfor = vec![0usize; n];
        // Final column index of each original column, used to map the
        // off-block-diagonal entries once every block is ordered.
        let mut col_final = vec![0usize; n];
        // Scratch: original column id → block-local index. Block
        // column sets are disjoint, so no reset pass is needed.
        let mut col_local = vec![0usize; n];
        let mut l = FlatRows::new();
        let mut u = FlatRows::new();
        let mut blocks = Vec::with_capacity(nblocks);
        let mut num_supernodes = 0usize;
        let mut max_supernode_width = 0usize;
        for k in 0..nblocks {
            let r = btf.block_range(k);
            let (lo, nb) = (r.start, r.end - r.start);
            let brows: Vec<usize> = r.clone().map(|i| btf.row_perm().old_of(i)).collect();
            let bcols: Vec<usize> = r.clone().map(|i| btf.col_perm().old_of(i)).collect();
            let (row_orig, col_orig, defer) = pair_block(a, &brows, &bcols);
            for (li, &c) in col_orig.iter().enumerate() {
                col_local[c] = li;
            }
            // Block-local structural rows (entries beyond the block are
            // the off-diagonal coupling, mapped below).
            let loc: Vec<Vec<usize>> = row_orig
                .iter()
                .map(|&v| {
                    a.row_iter(v)
                        .filter(|&(c, _)| btf.col_perm().new_of(c) < r.end)
                        .map(|(c, _)| col_local[c])
                        .collect()
                })
                .collect();
            let pre = if row_orig == col_orig {
                // Induced global ordering: sort the block's vertices by
                // their position in `gamd`. Deferral is inherited — the
                // global ordering already pushes diagonal-free rows to
                // the end, and an induced order preserves relative
                // positions.
                let mut fwd: Vec<usize> = (0..nb).collect();
                fwd.sort_by_key(|&li| gamd.new_of(col_orig[li]));
                Permutation::from_forward(fwd)?
            } else {
                // Genuinely unsymmetric block: order the transversal
                // pairs by AMD on the symmetrized block-local adjacency.
                let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nb];
                for (li, row) in loc.iter().enumerate() {
                    for &lj in row {
                        if lj != li {
                            adj[li].push(lj);
                            adj[lj].push(li);
                        }
                    }
                }
                for row in &mut adj {
                    row.sort_unstable();
                    row.dedup();
                }
                approximate_minimum_degree(&adj, &defer)
            };
            let permuted_rows = |p: &Permutation| -> Vec<Vec<usize>> {
                (0..nb)
                    .map(|li| {
                        let mut row: Vec<usize> =
                            loc[p.old_of(li)].iter().map(|&c| p.new_of(c)).collect();
                        row.sort_unstable();
                        row
                    })
                    .collect()
            };
            // First merge feeds the elimination tree; the block is then
            // re-eliminated in postorder so supernode runs are
            // consecutive (fill is invariant, see `etree_postorder`).
            let (_, u_pre) = symbolic_merge(&permuted_rows(&pre));
            let post = etree_postorder(&u_pre);
            let amd = Permutation::from_forward(post.iter().map(|&p| pre.old_of(p)).collect())?;
            let (l_cols, u_cols) = symbolic_merge(&permuted_rows(&amd));
            let sn = SupernodePartition::detect(&l_cols, &u_cols);
            num_supernodes += sn.count();
            max_supernode_width = max_supernode_width.max(sn.max_width());
            for li in 0..nb {
                let fi = lo + li;
                let ol = amd.old_of(li);
                rfor[fi] = row_orig[ol];
                cfor[fi] = col_orig[ol];
                col_final[col_orig[ol]] = fi;
            }
            for (lc, uc) in l_cols.iter().zip(&u_cols) {
                l.push_row(lc.iter().map(|&c| c as u32));
                u.push_row(uc.iter().map(|&c| c as u32));
            }
            blocks.push(BlockSym { lo, hi: r.end, sn });
        }

        // The off-block-diagonal pattern and the scatter map, in one
        // pass over the matrix in final row order: an entry inside its
        // row's block maps to its block-local column, any other to its
        // slot among the row's ascending off-diagonal columns.
        let (indptr, indices) = (a.indptr(), a.indices());
        let mut off = FlatRows::new();
        let mut scatter = vec![0u32; a.nnz()];
        let mut beyond: Vec<(usize, usize)> = Vec::new();
        for b in &blocks {
            for &orow in &rfor[b.lo..b.hi] {
                beyond.clear();
                for p in indptr[orow]..indptr[orow + 1] {
                    let fj = col_final[indices[p]];
                    if fj < b.hi {
                        debug_assert!(fj >= b.lo, "entry below the BTF block diagonal");
                        scatter[p] = (fj - b.lo) as u32;
                    } else {
                        beyond.push((fj, p));
                    }
                }
                beyond.sort_unstable();
                for (slot, &(_, p)) in (off.nnz()..).zip(&beyond) {
                    scatter[p] = OFFDIAG | slot as u32;
                }
                off.push_row(beyond.iter().map(|&(fj, _)| fj as u32));
            }
        }

        let stats = SparseLuStats {
            factor_nnz: l.nnz() + u.nnz() + off.nnz(),
            num_blocks: nblocks,
            max_block_dim: btf.max_block_dim(),
            num_supernodes,
            max_supernode_width,
        };
        Ok(Self {
            n,
            pattern: CsrPattern::of(a),
            repr: SymRepr::Klu(Box::new(KluSym {
                rperm: Permutation::from_forward(rfor)?,
                cperm: Permutation::from_forward(cfor)?,
                blocks,
                l,
                u,
                off,
                scatter,
                stats,
            })),
        })
    }

    /// Analyzes `a` on the scalar reference path: one global AMD
    /// ordering on the symmetrized pattern, deferring rows whose
    /// diagonal is structurally absent (voltage-source incidence rows
    /// in MNA systems) so the static pivot order never meets a
    /// structural zero. Retained as the differential oracle for the
    /// KLU path.
    ///
    /// # Errors
    ///
    /// [`NumericError::NotSquare`] for non-square input.
    pub fn analyze_reference<T: Scalar>(a: &CsrMatrix<T>) -> Result<Self> {
        let n = a.nrows();
        if a.ncols() != n {
            return Err(NumericError::NotSquare {
                rows: n,
                cols: a.ncols(),
            });
        }
        let adj = a.adjacency();
        let defer: Vec<bool> = (0..n).map(|i| !a.contains(i, i)).collect();
        let perm = approximate_minimum_degree(&adj, &defer);
        Self::analyze_with_ordering(a, perm)
    }

    /// Analyzes `a` under a caller-supplied symmetric permutation
    /// (`P·A·Pᵀ` is factored, reference numeric path).
    ///
    /// # Errors
    ///
    /// [`NumericError::NotSquare`] for non-square input,
    /// [`NumericError::DimensionMismatch`] if the permutation length
    /// differs from the matrix dimension.
    pub fn analyze_with_ordering<T: Scalar>(a: &CsrMatrix<T>, perm: Permutation) -> Result<Self> {
        let n = a.nrows();
        if a.ncols() != n {
            return Err(NumericError::NotSquare {
                rows: n,
                cols: a.ncols(),
            });
        }
        if perm.len() != n {
            return Err(NumericError::DimensionMismatch {
                expected: n,
                found: perm.len(),
            });
        }
        // Permuted structural rows, sorted ascending.
        let rows_p: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                let mut r: Vec<usize> = a
                    .row_iter(perm.old_of(i))
                    .map(|(c, _)| perm.new_of(c))
                    .collect();
                r.sort_unstable();
                r
            })
            .collect();
        let (l_cols, u_cols) = symbolic_merge(&rows_p);
        Ok(Self {
            n,
            pattern: CsrPattern::of(a),
            repr: SymRepr::Reference(RefSym {
                perm,
                l_cols,
                u_cols,
            }),
        })
    }

    /// Dimension of the analyzed system.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The row permutation in use (`forward[new] = old`). On the
    /// reference path rows and columns share this permutation; on the
    /// KLU path the column permutation differs (off-diagonal matching).
    pub fn perm(&self) -> &Permutation {
        match &self.repr {
            SymRepr::Reference(r) => &r.perm,
            SymRepr::Klu(k) => &k.rperm,
        }
    }

    /// Stored entries in `L` plus `U` (unit diagonal of `L` excluded,
    /// off-diagonal coupling included): the memory and per-refactor
    /// work the pattern implies.
    pub fn factor_nnz(&self) -> usize {
        match &self.repr {
            SymRepr::Reference(r) => {
                r.l_cols.iter().map(Vec::len).sum::<usize>()
                    + r.u_cols.iter().map(Vec::len).sum::<usize>()
            }
            SymRepr::Klu(k) => k.stats.factor_nnz,
        }
    }

    /// Fill-in / block / supernode statistics of this pattern. The
    /// reference path reports the degenerate single-block view (every
    /// column its own supernode).
    pub fn stats(&self) -> SparseLuStats {
        match &self.repr {
            SymRepr::Reference(_) => SparseLuStats {
                factor_nnz: self.factor_nnz(),
                num_blocks: 1,
                max_block_dim: self.n,
                num_supernodes: self.n,
                max_supernode_width: usize::from(self.n > 0),
            },
            SymRepr::Klu(k) => k.stats,
        }
    }

    /// Whether this symbolic factorization applies to `a`: its row
    /// pointers and column indices equal the analyzed pattern's,
    /// compared exactly (`O(nnz)`, no allocation), so a pattern that
    /// merely hashes alike is never accepted.
    pub fn matches<T: Scalar>(&self, a: &CsrMatrix<T>) -> bool {
        self.pattern.matches(a)
    }
}

/// Maps a budget violation inside the numeric phase onto the numeric
/// error taxonomy (cancellation keeps its own variant).
fn budget_to_numeric(e: BudgetError) -> NumericError {
    match e {
        BudgetError::Cancelled => NumericError::Cancelled,
        other => NumericError::BudgetExceeded {
            what: other.to_string(),
        },
    }
}

/// Reference numeric phase: scalar up-looking row Doolittle over the
/// global ordering.
fn reference_numeric<T: Scalar>(
    sym: &RefSym,
    a: &CsrMatrix<T>,
    l_vals: &mut [Vec<T>],
    u_vals: &mut [Vec<T>],
) -> Result<()> {
    let n = sym.perm.len();
    let mut x = vec![T::zero(); n];
    for i in 0..n {
        // Scatter permuted row i. Every entry lies inside the
        // symbolic pattern by construction (the pattern contains the
        // matrix pattern, and `matches` pinned the pattern).
        for (c, v) in a.row_iter(sym.perm.old_of(i)) {
            x[sym.perm.new_of(c)] = v;
        }
        // Eliminate along the precomputed L pattern (ascending).
        for (slot, &j) in sym.l_cols[i].iter().enumerate() {
            // ind101: allow(index-panic, U rows store the diagonal first by construction of the symbolic pattern)
            let lij = x[j] / u_vals[j][0];
            x[j] = T::zero();
            l_vals[i][slot] = lij;
            if lij.is_zero() {
                continue;
            }
            for (uslot, &c) in sym.u_cols[j].iter().enumerate().skip(1) {
                x[c] -= lij * u_vals[j][uslot];
            }
        }
        // Gather the U row; the diagonal is the static pivot.
        for (slot, &c) in sym.u_cols[i].iter().enumerate() {
            u_vals[i][slot] = x[c];
            x[c] = T::zero();
        }
        // ind101: allow(index-panic, U rows store the diagonal first by construction of the symbolic pattern)
        let piv = u_vals[i][0];
        if !(piv.abs_val() > 0.0) || !piv.abs_val().is_finite() {
            return Err(NumericError::Singular {
                pivot: sym.perm.old_of(i),
            });
        }
    }
    Ok(())
}

/// KLU numeric phase: factor the diagonal blocks — in parallel across
/// threads, supernodal kernel — straight into the flat value arrays.
/// Each matrix row is scattered through the analysis's map as its panel
/// comes up: block-diagonal entries into the kernel's workspace, the
/// rest into the off-diagonal values of the block back-substitution.
fn klu_numeric<T: Scalar>(
    klu: &KluSym,
    a: &CsrMatrix<T>,
    l_vals: &mut [T],
    u_vals: &mut [T],
    off_vals: &mut [T],
    budget: &SolveBudget,
    cfg: &ParallelConfig,
) -> Result<()> {
    let nblocks = klu.blocks.len();
    if nblocks == 0 {
        return Ok(());
    }
    // The partition is a pure function of (block count, thread count),
    // every block is factored serially by exactly one thread into value
    // slices no other thread touches, and the first failing block in
    // block order is reported, so values — and the error — are
    // bit-identical across thread counts.
    let guard = SolveGuard::new(budget.clone());
    let mut rest = [l_vals, u_vals, off_vals];
    let jobs: Vec<_> = uniform_row_blocks(nblocks, cfg.blocks_for(nblocks))
        .into_iter()
        .map(|r| {
            let rows = klu.blocks[r.start].lo..klu.blocks[r.end - 1].hi;
            (r, klu.take_rows(rows, &mut rest))
        })
        .collect();
    let outcomes = map_scoped(jobs, |(r, vals)| factor_blocks(klu, a, r, vals, &guard));
    match outcomes.into_iter().find_map(std::result::Result::err) {
        None => Ok(()),
        Some((kb, BlockFactorError::Singular(local))) => Err(NumericError::Singular {
            pivot: klu.rperm.old_of(klu.blocks[kb].lo + local),
        }),
        Some((_, BlockFactorError::Budget(e))) => Err(budget_to_numeric(e)),
    }
}

/// Factors blocks `range`, in order, into the `L`, `U` and coupling
/// value slices `vals`, which start at the range's first row; stops at
/// the first failing block.
fn factor_blocks<T: Scalar>(
    klu: &KluSym,
    a: &CsrMatrix<T>,
    range: std::ops::Range<usize>,
    mut vals: [&mut [T]; 3],
    guard: &SolveGuard,
) -> std::result::Result<(), (usize, BlockFactorError)> {
    let (indptr, data) = (a.indptr(), a.data());
    for kb in range {
        let b = &klu.blocks[kb];
        let rows = b.lo..b.hi;
        let off_base = klu.off.slots(rows.clone()).start;
        let [lv, uv, ov] = klu.take_rows(rows.clone(), &mut vals);
        let scatter = |i: usize, wrow: &mut [T]| {
            let orow = klu.rperm.old_of(b.lo + i);
            let span = indptr[orow]..indptr[orow + 1];
            for (&m, &v) in klu.scatter[span.clone()].iter().zip(&data[span]) {
                if m & OFFDIAG == 0 {
                    wrow[m as usize] = v;
                } else {
                    ov[(m & !OFFDIAG) as usize - off_base] = v;
                }
            }
        };
        factor_supernodal(
            &b.sn,
            klu.l.rows(rows.clone()),
            klu.u.rows(rows),
            scatter,
            lv,
            uv,
            guard,
        )
        .map_err(|e| (kb, e))?;
    }
    Ok(())
}

/// Factor values, laid out as the symbolic pattern of their path.
#[derive(Clone, Debug)]
enum Factors<T> {
    /// Per permuted row, aligned with [`RefSym`]'s `l_cols` / `u_cols`.
    Reference { l: Vec<Vec<T>>, u: Vec<Vec<T>> },
    /// Flat, aligned with [`KluSym`]'s `l` / `u` / `off` patterns.
    Klu { l: Vec<T>, u: Vec<T>, off: Vec<T> },
}

/// A numerically factored sparse system sharing a [`SymbolicLu`]
/// pattern. On the reference path `P·A·Pᵀ = L·U`; on the KLU path
/// `Pr·A·Pcᵀ` is block upper triangular with `L·U` factors per diagonal
/// block.
#[derive(Clone, Debug)]
pub struct SparseLu<T: Scalar> {
    sym: Arc<SymbolicLu>,
    vals: Factors<T>,
}

impl<T: Scalar> SparseLu<T> {
    /// Analyzes (KLU path) and factors `a` in one call.
    ///
    /// # Errors
    ///
    /// Structural errors from [`SymbolicLu::analyze`], or
    /// [`NumericError::Singular`] (pivot in original coordinates).
    pub fn factor(a: &CsrMatrix<T>) -> Result<Self> {
        let sym = Arc::new(SymbolicLu::analyze(a)?);
        Self::factor_with(sym, a)
    }

    /// Analyzes and factors `a` on the scalar reference path — the
    /// differential oracle for [`SparseLu::factor`].
    ///
    /// # Errors
    ///
    /// Structural errors from [`SymbolicLu::analyze_reference`], or
    /// [`NumericError::Singular`].
    pub fn factor_reference(a: &CsrMatrix<T>) -> Result<Self> {
        let sym = Arc::new(SymbolicLu::analyze_reference(a)?);
        Self::factor_with(sym, a)
    }

    /// Numeric factorization reusing an existing symbolic pattern
    /// (either path), unlimited budget, default parallelism.
    ///
    /// # Errors
    ///
    /// [`NumericError::PatternMismatch`] if `a`'s pattern differs from
    /// the one `sym` was analyzed on (the only pattern check of the
    /// call); [`NumericError::Singular`] on a zero/non-finite pivot.
    pub fn factor_with(sym: Arc<SymbolicLu>, a: &CsrMatrix<T>) -> Result<Self> {
        Self::factor_with_budget(sym, a, &SolveBudget::unlimited(), &ParallelConfig::default())
    }

    /// Numeric factorization under a [`SolveBudget`] (polled between
    /// supernode panels on the KLU path) and an explicit thread
    /// configuration. Values are bit-identical across thread counts.
    ///
    /// # Errors
    ///
    /// As [`SparseLu::factor_with`], plus [`NumericError::Cancelled`] /
    /// [`NumericError::BudgetExceeded`] when the budget trips.
    pub fn factor_with_budget(
        sym: Arc<SymbolicLu>,
        a: &CsrMatrix<T>,
        budget: &SolveBudget,
        cfg: &ParallelConfig,
    ) -> Result<Self> {
        let vals = match &sym.repr {
            SymRepr::Reference(r) => Factors::Reference {
                l: r.l_cols.iter().map(|c| vec![T::zero(); c.len()]).collect(),
                u: r.u_cols.iter().map(|c| vec![T::zero(); c.len()]).collect(),
            },
            SymRepr::Klu(k) => Factors::Klu {
                l: vec![T::zero(); k.l.nnz()],
                u: vec![T::zero(); k.u.nnz()],
                off: vec![T::zero(); k.off.nnz()],
            },
        };
        let mut lu = Self { sym, vals };
        lu.refactor_budgeted(a, budget, cfg)?;
        Ok(lu)
    }

    /// Re-runs only the numeric phase on a matrix with the same pattern
    /// (new time step, new Newton linearization…).
    ///
    /// # Errors
    ///
    /// Same contract as [`SparseLu::factor_with`]. After an error the
    /// factor values are unspecified until a refactor succeeds.
    pub fn refactor(&mut self, a: &CsrMatrix<T>) -> Result<()> {
        self.refactor_budgeted(a, &SolveBudget::unlimited(), &ParallelConfig::default())
    }

    /// [`SparseLu::refactor`] under a [`SolveBudget`] and an explicit
    /// thread configuration.
    ///
    /// # Errors
    ///
    /// Same contract as [`SparseLu::factor_with_budget`].
    pub fn refactor_budgeted(
        &mut self,
        a: &CsrMatrix<T>,
        budget: &SolveBudget,
        cfg: &ParallelConfig,
    ) -> Result<()> {
        let mismatch = NumericError::PatternMismatch {
            expected_nnz: self.sym.pattern.nnz(),
            found_nnz: a.nnz(),
        };
        if !self.sym.matches(a) {
            return Err(mismatch);
        }
        match (&self.sym.repr, &mut self.vals) {
            (SymRepr::Reference(r), Factors::Reference { l, u }) => reference_numeric(r, a, l, u),
            (SymRepr::Klu(k), Factors::Klu { l, u, off }) => {
                klu_numeric(k, a, l, u, off, budget, cfg)
            }
            // `factor_with_budget` lays the values out for the pattern's
            // path, and a factor never changes its pattern.
            _ => Err(mismatch),
        }
    }

    /// The shared symbolic factorization.
    pub fn symbolic(&self) -> &Arc<SymbolicLu> {
        &self.sym
    }

    /// Fill-in / block / supernode statistics of the underlying pattern.
    pub fn stats(&self) -> SparseLuStats {
        self.sym.stats()
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// [`NumericError::DimensionMismatch`] on a wrong-length `b`.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>> {
        if b.len() != self.sym.n {
            return Err(NumericError::DimensionMismatch {
                expected: self.sym.n,
                found: b.len(),
            });
        }
        match (&self.sym.repr, &self.vals) {
            (SymRepr::Reference(r), Factors::Reference { l, u }) => Ok(solve_reference(r, l, u, b)),
            (SymRepr::Klu(k), Factors::Klu { l, u, off }) => Ok(solve_klu(k, l, u, off, b)),
            // As in `refactor_budgeted`: the layout always follows the
            // pattern's path.
            _ => Err(NumericError::PatternMismatch {
                expected_nnz: self.sym.pattern.nnz(),
                found_nnz: self.sym.pattern.nnz(),
            }),
        }
    }

    /// Solves `A·x = b` and refines the answer against the original
    /// matrix `a` until its componentwise backward error meets
    /// [`crate::REFINE_TOL`], stops halving, or has taken
    /// [`crate::REFINE_MAX_ROUNDS`] corrections ([`crate::refine`]) — the
    /// antidote to the digits static pivoting can lose. The answer is
    /// returned whatever its backward error; [`Refined::met`] judges it.
    ///
    /// # Errors
    ///
    /// Dimension mismatches between `a`, `b` and the factors.
    pub fn solve_refined(&self, a: &CsrMatrix<T>, b: &[T]) -> Result<Refined<T>> {
        refine(a, b, |r| self.solve(r))
    }
}

/// Reference triangular solves over the global ordering.
fn solve_reference<T: Scalar>(
    sym: &RefSym,
    l_vals: &[Vec<T>],
    u_vals: &[Vec<T>],
    b: &[T],
) -> Vec<T> {
    let n = sym.perm.len();
    let mut x = sym.perm.apply(b);
    // Forward: L·y = P·b (unit diagonal).
    for i in 0..n {
        let mut acc = x[i];
        for (slot, &j) in sym.l_cols[i].iter().enumerate() {
            acc -= l_vals[i][slot] * x[j];
        }
        x[i] = acc;
    }
    // Backward: U·z = y.
    for i in (0..n).rev() {
        let mut acc = x[i];
        for (slot, &c) in sym.u_cols[i].iter().enumerate().skip(1) {
            acc -= u_vals[i][slot] * x[c];
        }
        // ind101: allow(index-panic, U rows store the diagonal first by construction of the symbolic pattern)
        x[i] = acc / u_vals[i][0];
    }
    sym.perm.apply_inverse(&x)
}

/// Block back-substitution over the flat factor: blocks in reverse
/// order, each one a pair of triangular solves after subtracting the
/// already-solved off-diagonal coupling.
fn solve_klu<T: Scalar>(
    klu: &KluSym,
    l_vals: &[T],
    u_vals: &[T],
    off_vals: &[T],
    b: &[T],
) -> Vec<T> {
    let mut x = klu.rperm.apply(b);
    for blk in klu.blocks.iter().rev() {
        // Off-diagonal coupling into later (already final) blocks.
        for fi in blk.lo..blk.hi {
            let mut acc = x[fi];
            for (&v, &fj) in off_vals[klu.off.span(fi)].iter().zip(klu.off.row(fi)) {
                acc -= v * x[fj as usize];
            }
            x[fi] = acc;
        }
        let xb = &mut x[blk.lo..blk.hi];
        // Forward: L·y = rhs (unit diagonal), block-local columns.
        for (li, fi) in (blk.lo..blk.hi).enumerate() {
            let mut acc = xb[li];
            for (&v, &lj) in l_vals[klu.l.span(fi)].iter().zip(klu.l.row(fi)) {
                acc -= v * xb[lj as usize];
            }
            xb[li] = acc;
        }
        // Backward: U·z = y; each U row leads with its diagonal.
        for (li, fi) in (blk.lo..blk.hi).enumerate().rev() {
            let s = klu.u.span(fi);
            let mut acc = xb[li];
            for (&v, &cj) in u_vals[s.start + 1..s.end].iter().zip(&klu.u.row(fi)[1..]) {
                acc -= v * xb[cj as usize];
            }
            xb[li] = acc / u_vals[s.start];
        }
    }
    klu.cperm.apply_inverse(&x)
}

/// The KLU numeric phase and block solve this module shipped before its
/// pattern went flat, kept verbatim as the oracle the flat layout is
/// pinned against bit for bit. Per call they rebuild each block's rows
/// as `(col, value)` lists through a `block_of` table, and keep one
/// vector per row of every pattern and factor.
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::partition::collect_row_blocks;

    /// One BTF diagonal block's symbolic data, in block-local indices.
    pub(super) struct BlockSym {
        /// First final index of the block (the block spans
        /// `lo .. lo + u_cols.len()`).
        lo: usize,
        /// Per local row: `L` columns `< i`, ascending.
        l_cols: Vec<Vec<usize>>,
        /// Per local row: `U` columns `≥ i`, ascending, diagonal first.
        u_cols: Vec<Vec<usize>>,
        /// Relaxed supernode partition of the block's columns.
        sn: SupernodePartition,
    }

    /// The per-row layout of a flat [`super::KluSym`].
    pub(super) struct KluSym {
        rperm: Permutation,
        cperm: Permutation,
        /// Block id of each final index.
        block_of: Vec<usize>,
        blocks: Vec<BlockSym>,
        /// Per final row: structural columns beyond the row's block.
        offdiag_cols: Vec<Vec<usize>>,
    }

    impl KluSym {
        pub(super) fn of(k: &super::KluSym) -> Self {
            let n = k.rperm.len();
            let widen = |f: &FlatRows, i: usize| f.row(i).iter().map(|&c| c as usize).collect();
            let mut block_of = vec![0usize; n];
            let blocks = k
                .blocks
                .iter()
                .enumerate()
                .map(|(kb, b)| {
                    block_of[b.lo..b.hi].fill(kb);
                    BlockSym {
                        lo: b.lo,
                        l_cols: (b.lo..b.hi).map(|i| widen(&k.l, i)).collect(),
                        u_cols: (b.lo..b.hi).map(|i| widen(&k.u, i)).collect(),
                        sn: b.sn.clone(),
                    }
                })
                .collect();
            Self {
                rperm: k.rperm.clone(),
                cperm: k.cperm.clone(),
                block_of,
                blocks,
                offdiag_cols: (0..n).map(|i| widen(&k.off, i)).collect(),
            }
        }

        /// Factors `a` with the per-row kernel (one thread) and solves
        /// `b`: the `L`, `U` and off-diagonal values, concatenated row
        /// after row, and the solution.
        pub(super) fn factor_and_solve<T: Scalar>(
            &self,
            a: &CsrMatrix<T>,
            b: &[T],
        ) -> Result<([Vec<T>; 3], Vec<T>)> {
            let zeros = |cols: &Vec<usize>| vec![T::zero(); cols.len()];
            let mut l: Vec<Vec<T>> = self
                .blocks
                .iter()
                .flat_map(|b| b.l_cols.iter().map(zeros))
                .collect();
            let mut u: Vec<Vec<T>> = self
                .blocks
                .iter()
                .flat_map(|b| b.u_cols.iter().map(zeros))
                .collect();
            let mut off: Vec<Vec<T>> = self.offdiag_cols.iter().map(zeros).collect();
            let unlimited = SolveBudget::unlimited();
            klu_numeric(
                self,
                a,
                &mut l,
                &mut u,
                &mut off,
                &unlimited,
                &ParallelConfig::serial(),
            )?;
            let x = solve_klu(self, &l, &u, &off, b);
            Ok(([l.concat(), u.concat(), off.concat()], x))
        }
    }

    /// KLU numeric phase: scatter into block-local rows, factor diagonal
    /// blocks independently (parallel across threads, supernodal kernel),
    /// and stash off-diagonal values for the block back-substitution.
    pub(super) fn klu_numeric<T: Scalar>(
        klu: &KluSym,
        a: &CsrMatrix<T>,
        l_vals: &mut [Vec<T>],
        u_vals: &mut [Vec<T>],
        offdiag_vals: &mut [Vec<T>],
        budget: &SolveBudget,
        cfg: &ParallelConfig,
    ) -> Result<()> {
        let n = klu.rperm.len();
        let nblocks = klu.blocks.len();
        if nblocks == 0 {
            return Ok(());
        }
        // Scatter the matrix rows into block-local (col, value) lists plus
        // the off-diagonal slots. Every off-diagonal entry is structural in
        // `offdiag_cols` and every slot is rewritten on each refactor, so
        // no zeroing pass is needed.
        let mut rows: Vec<Vec<Vec<(usize, T)>>> = klu
            .blocks
            .iter()
            .map(|b| vec![Vec::new(); b.u_cols.len()])
            .collect();
        for fi in 0..n {
            let kb = klu.block_of[fi];
            let b = &klu.blocks[kb];
            let hi = b.lo + b.u_cols.len();
            for (c, v) in a.row_iter(klu.rperm.old_of(fi)) {
                let fj = klu.cperm.new_of(c);
                if fj < hi {
                    debug_assert!(fj >= b.lo, "entry below the block diagonal");
                    rows[kb][fi - b.lo].push((fj - b.lo, v));
                } else if let Ok(slot) = klu.offdiag_cols[fi].binary_search(&fj) {
                    offdiag_vals[fi][slot] = v;
                } else {
                    debug_assert!(false, "off-diagonal entry missing from the pattern");
                }
            }
        }
        // Factor the diagonal blocks. The partition is a pure function of
        // (block count, thread count), every block is factored serially by
        // exactly one thread, and results are consumed in block order, so
        // values — and the *first* failing block — are bit-identical across
        // thread counts.
        let guard = SolveGuard::new(budget.clone());
        let ranges = uniform_row_blocks(nblocks, cfg.blocks_for(nblocks));
        type BlockOut<T> = (
            usize,
            std::result::Result<(Vec<Vec<T>>, Vec<Vec<T>>), BlockFactorError>,
        );
        let results: Vec<BlockOut<T>> = collect_row_blocks(&ranges, |r| {
            r.map(|kb| {
                let b = &klu.blocks[kb];
                let mut lv: Vec<Vec<T>> =
                    b.l_cols.iter().map(|c| vec![T::zero(); c.len()]).collect();
                let mut uv: Vec<Vec<T>> =
                    b.u_cols.iter().map(|c| vec![T::zero(); c.len()]).collect();
                let res = crate::supernode::oracle::factor_supernodal(
                    &b.sn, &b.l_cols, &b.u_cols, &rows[kb], &mut lv, &mut uv, &guard,
                );
                (kb, res.map(|()| (lv, uv)))
            })
            .collect()
        });
        for (kb, res) in results {
            let b = &klu.blocks[kb];
            match res {
                Ok((lv, uv)) => {
                    for (li, v) in lv.into_iter().enumerate() {
                        l_vals[b.lo + li] = v;
                    }
                    for (li, v) in uv.into_iter().enumerate() {
                        u_vals[b.lo + li] = v;
                    }
                }
                Err(BlockFactorError::Singular(local)) => {
                    return Err(NumericError::Singular {
                        pivot: klu.rperm.old_of(b.lo + local),
                    })
                }
                Err(BlockFactorError::Budget(e)) => return Err(budget_to_numeric(e)),
            }
        }
        Ok(())
    }

    /// Block back-substitution: blocks in reverse order, each one a
    /// pair of triangular solves after subtracting the already-solved
    /// off-diagonal coupling.
    pub(super) fn solve_klu<T: Scalar>(
        klu: &KluSym,
        l_vals: &[Vec<T>],
        u_vals: &[Vec<T>],
        offdiag_vals: &[Vec<T>],
        b: &[T],
    ) -> Vec<T> {
        let mut x = klu.rperm.apply(b);
        for blk in klu.blocks.iter().rev() {
            let lo = blk.lo;
            let nb = blk.u_cols.len();
            // Off-diagonal coupling into later (already final) blocks.
            for li in 0..nb {
                let fi = lo + li;
                let mut acc = x[fi];
                for (slot, &fj) in klu.offdiag_cols[fi].iter().enumerate() {
                    acc -= offdiag_vals[fi][slot] * x[fj];
                }
                x[fi] = acc;
            }
            // Forward: L·y = rhs (unit diagonal), block-local columns.
            for li in 0..nb {
                let fi = lo + li;
                let mut acc = x[fi];
                for (slot, &lj) in blk.l_cols[li].iter().enumerate() {
                    acc -= l_vals[fi][slot] * x[lo + lj];
                }
                x[fi] = acc;
            }
            // Backward: U·z = y.
            for li in (0..nb).rev() {
                let fi = lo + li;
                let mut acc = x[fi];
                for (slot, &cj) in blk.u_cols[li].iter().enumerate().skip(1) {
                    acc -= u_vals[fi][slot] * x[lo + cj];
                }
                x[fi] = acc / u_vals[fi][0];
            }
        }
        klu.cperm.apply_inverse(&x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::Triplets;
    use crate::{CancelToken, Complex64};

    fn grid_laplacian(w: usize, h: usize) -> Triplets {
        let n = w * h;
        let idx = |x: usize, y: usize| y * w + x;
        let mut t = Triplets::new(n, n);
        for y in 0..h {
            for x in 0..w {
                let i = idx(x, y);
                t.push(i, i, 4.01);
                let mut nb = |j: usize| {
                    t.push(i, j, -1.0);
                };
                if x > 0 {
                    nb(idx(x - 1, y));
                }
                if x + 1 < w {
                    nb(idx(x + 1, y));
                }
                if y > 0 {
                    nb(idx(x, y - 1));
                }
                if y + 1 < h {
                    nb(idx(x, y + 1));
                }
            }
        }
        t
    }

    fn max_residual(t: &Triplets, x: &[f64], b: &[f64]) -> f64 {
        let r = t.to_dense().matvec(x).unwrap();
        r.iter()
            .zip(b)
            .map(|(u, v)| (u - v).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn grid_system_solves_exactly() {
        let t = grid_laplacian(12, 9);
        let n = t.nrows();
        let csr = t.to_csr();
        let lu = SparseLu::factor(&csr).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let x = lu.solve(&b).unwrap();
        assert!(max_residual(&t, &x, &b) < 1e-10);
    }

    #[test]
    fn matches_dense_lu_solution() {
        let t = grid_laplacian(6, 6);
        let csr = t.to_csr();
        let lu = SparseLu::factor(&csr).unwrap();
        let b: Vec<f64> = (0..36).map(|i| 1.0 + i as f64).collect();
        let sparse = lu.solve(&b).unwrap();
        let dense = t.to_dense().lu().unwrap().solve(&b).unwrap();
        for (s, d) in sparse.iter().zip(&dense) {
            assert!((s - d).abs() < 1e-9, "{s} vs {d}");
        }
    }

    #[test]
    fn klu_matches_reference_oracle() {
        let t = grid_laplacian(9, 7);
        let csr = t.to_csr();
        let klu = SparseLu::factor(&csr).unwrap();
        let oracle = SparseLu::factor_reference(&csr).unwrap();
        let b: Vec<f64> = (0..t.nrows()).map(|i| (i as f64 * 0.11).cos()).collect();
        let xk = klu.solve(&b).unwrap();
        let xr = oracle.solve(&b).unwrap();
        for (k, r) in xk.iter().zip(&xr) {
            assert!((k - r).abs() < 1e-10, "{k} vs {r}");
        }
    }

    #[test]
    fn refactor_reuses_pattern_for_new_values() {
        let t1 = grid_laplacian(8, 8);
        // Same pattern, different values (as a new transient step size
        // produces).
        let mut t2 = Triplets::new(t1.nrows(), t1.ncols());
        for &(i, j, v) in t1.entries() {
            t2.push(i, j, if i == j { v * 2.5 } else { v * 0.5 });
        }
        let c1 = t1.to_csr();
        let c2 = t2.to_csr();
        let mut lu = SparseLu::factor(&c1).unwrap();
        let sym = lu.symbolic().clone();
        assert!(sym.matches(&c2));
        lu.refactor(&c2).unwrap();
        let b = vec![1.0; t1.nrows()];
        let x = lu.solve(&b).unwrap();
        assert!(max_residual(&t2, &x, &b) < 1e-10);
        // And factor_with on the shared pattern gives the same answer.
        let lu2 = SparseLu::factor_with(sym, &c2).unwrap();
        assert_eq!(lu2.solve(&b).unwrap(), x);
    }

    #[test]
    fn pattern_mismatch_is_rejected() {
        let a = grid_laplacian(5, 5).to_csr();
        let b = grid_laplacian(5, 4).to_csr();
        let sym = Arc::new(SymbolicLu::analyze(&a).unwrap());
        assert!(!sym.matches(&b));
        assert!(SparseLu::factor_with(sym, &b).is_err());
    }

    #[test]
    fn same_size_pattern_with_one_entry_moved_is_rejected() {
        // Same dimension, same nnz, same row counts: only the column of
        // one off-diagonal pair differs. The exact comparison refuses it
        // with the typed mismatch, before any numeric work.
        let a = grid_laplacian(6, 6);
        let mut moved = Triplets::new(a.nrows(), a.ncols());
        for &(i, j, v) in a.entries() {
            let j = match (i, j) {
                (0, 1) => 2,
                _ => j,
            };
            moved.push(i, j, v);
        }
        let (a, moved) = (a.to_csr(), moved.to_csr());
        assert_eq!(a.nnz(), moved.nnz());
        assert_eq!(a.indptr(), moved.indptr());
        let sym = Arc::new(SymbolicLu::analyze(&a).unwrap());
        assert!(sym.matches(&a));
        assert!(!sym.matches(&moved));
        match SparseLu::factor_with(Arc::clone(&sym), &moved) {
            Err(NumericError::PatternMismatch {
                expected_nnz,
                found_nnz,
            }) => assert_eq!((expected_nnz, found_nnz), (a.nnz(), moved.nnz())),
            other => panic!("expected PatternMismatch, got {other:?}"),
        }
        let mut lu = SparseLu::factor_with(sym, &a).unwrap();
        assert!(matches!(
            lu.refactor(&moved),
            Err(NumericError::PatternMismatch { .. })
        ));
    }

    /// Oracle for [`symbolic_merge`]: dense boolean Gaussian elimination
    /// in the given order (diagonal always present), no pruning.
    fn dense_fill(rows_p: &[Vec<usize>]) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
        let n = rows_p.len();
        let mut b = vec![vec![false; n]; n];
        for (i, row) in rows_p.iter().enumerate() {
            b[i][i] = true;
            for &c in row {
                b[i][c] = true;
            }
        }
        for k in 0..n {
            for i in k + 1..n {
                if b[i][k] {
                    for j in k + 1..n {
                        if b[k][j] {
                            b[i][j] = true;
                        }
                    }
                }
            }
        }
        let l = (0..n)
            .map(|i| (0..i).filter(|&j| b[i][j]).collect())
            .collect();
        let u = (0..n)
            .map(|i| (i..n).filter(|&j| b[i][j]).collect())
            .collect();
        (l, u)
    }

    /// Random sorted structural rows: each off-diagonal position is
    /// present with probability `density`, mirrored across the diagonal
    /// when `symmetric`; each diagonal is present with probability 1/2.
    fn random_rows(seed: u64, n: usize, density: f64, symmetric: bool) -> Vec<Vec<usize>> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut coin = move |p: f64| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s >> 11) as f64) / ((1u64 << 53) as f64) < p
        };
        let mut b = vec![vec![false; n]; n];
        for i in 0..n {
            b[i][i] = coin(0.5);
            for j in 0..n {
                if i != j && (!symmetric || j > i) && coin(density) {
                    b[i][j] = true;
                    if symmetric {
                        b[j][i] = true;
                    }
                }
            }
        }
        b.iter()
            .map(|row| (0..n).filter(|&j| row[j]).collect())
            .collect()
    }

    proptest::proptest! {
        #[test]
        fn pruned_merge_matches_dense_elimination(
            seed in 0u64..1_000_000,
            n in 1usize..61,
            density in 0.0f64..0.3,
            symmetric in proptest::prelude::prop::bool::ANY,
        ) {
            let rows = random_rows(seed, n, density, symmetric);
            let got = symbolic_merge(&rows);
            proptest::prop_assert!(got == dense_fill(&rows), "n = {n}, rows = {rows:?}");
        }
    }

    #[test]
    fn pruned_merge_matches_dense_elimination_on_mna_shapes() {
        // Grid Laplacians (structurally symmetric, heavy pruning) and a
        // vsrc-bordered chain (missing diagonals), in natural order.
        for t in [grid_laplacian(7, 8), grid_laplacian(1, 30)] {
            let a = t.to_csr();
            let rows: Vec<Vec<usize>> = (0..a.nrows())
                .map(|i| a.row_iter(i).map(|(c, _)| c).collect())
                .collect();
            assert_eq!(symbolic_merge(&rows), dense_fill(&rows));
        }
        let n = 40;
        let mut rows: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                let mut r = vec![i];
                if i > 0 {
                    r.insert(0, i - 1);
                }
                if i + 1 < n - 1 {
                    r.push(i + 1);
                }
                r
            })
            .collect();
        rows[n - 1] = vec![0, n / 2];
        rows[0].push(n - 1);
        rows[n / 2].push(n - 1);
        assert_eq!(symbolic_merge(&rows), dense_fill(&rows));
    }

    #[test]
    fn zero_structural_diagonal_rows_are_deferred() {
        // An MNA-shaped system: a resistive node block bordered by a
        // voltage-source incidence row with *no* diagonal. The KLU path
        // handles it via off-diagonal matching, the reference path via
        // AMD deferral — both must solve it.
        let n = 80;
        let mut t = Triplets::new(n, n);
        for i in 0..n - 1 {
            t.push(i, i, 3.0);
            if i + 1 < n - 1 {
                t.push(i, i + 1, -1.0);
                t.push(i + 1, i, -1.0);
            }
        }
        // Row n-1: vsrc row pinning node 0 (incidence ±1 only).
        t.push(n - 1, 0, 1.0);
        t.push(0, n - 1, 1.0);
        let csr = t.to_csr();
        assert!(!csr.contains(n - 1, n - 1));
        let mut b = vec![0.0; n];
        b[n - 1] = 2.0; // pin v0 = 2
        for lu in [
            SparseLu::factor(&csr).unwrap(),
            SparseLu::factor_reference(&csr).unwrap(),
        ] {
            let x = lu.solve(&b).unwrap();
            assert!((x[0] - 2.0).abs() < 1e-10, "v0 = {}", x[0]);
            assert!(max_residual(&t, &x, &b) < 1e-9);
        }
    }

    #[test]
    fn singular_pivot_maps_to_original_index() {
        let n = 60;
        let dead = 23usize;
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            if i == dead {
                continue;
            }
            t.push(i, i, 2.0);
            if i + 1 < n && i + 1 != dead {
                t.push(i, i + 1, -0.5);
                t.push(i + 1, i, -0.5);
            }
        }
        t.push(dead, dead, 0.0);
        // A structurally-present but numerically zero diagonal entry is
        // dropped by Triplets::push? No: push skips exact zeros, so use
        // a cancelling duplicate to store a structural zero.
        t.push(dead, dead, 1.0);
        t.push(dead, dead, -1.0);
        match SparseLu::factor(&t.to_csr()) {
            Err(NumericError::Singular { pivot }) => assert_eq!(pivot, dead),
            other => panic!("expected singular, got {other:?}"),
        }
    }

    #[test]
    fn structurally_singular_is_rejected_at_analysis() {
        // An empty row: no matching can cover it.
        let n = 10;
        let mut t = Triplets::new(n, n);
        for i in 0..n - 1 {
            t.push(i, i, 1.0);
        }
        match SymbolicLu::analyze(&t.to_csr()) {
            Err(NumericError::StructurallySingular { dim, .. }) => assert_eq!(dim, n),
            other => panic!("expected StructurallySingular, got {other:?}"),
        }
    }

    #[test]
    fn complex_system_via_scalar_trait() {
        // 1-D "AC ladder": complex admittances.
        let n = 64;
        let mut t: Triplets<Complex64> = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, Complex64::new(2.0, 0.7));
            if i + 1 < n {
                t.push(i, i + 1, Complex64::new(-1.0, -0.3));
                t.push(i + 1, i, Complex64::new(-1.0, -0.3));
            }
        }
        let csr = t.to_csr();
        let lu = SparseLu::factor(&csr).unwrap();
        let b: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(1.0, (i % 5) as f64 * 0.2))
            .collect();
        let x = lu.solve(&b).unwrap();
        let ax = csr.matvec(&x).unwrap();
        for (u, v) in ax.iter().zip(&b) {
            assert!((*u - *v).abs() < 1e-10);
        }
    }

    #[test]
    fn refinement_tightens_ill_scaled_solves() {
        let n = 50;
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, if i % 2 == 0 { 1e7 } else { 1e-6 });
            if i + 1 < n {
                t.push(i, i + 1, 1e-7);
                t.push(i + 1, i, 1e-7);
            }
        }
        let csr = t.to_csr();
        let lu = SparseLu::factor(&csr).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let refined = lu.solve_refined(&csr, &b).unwrap();
        assert!(refined.met(), "berr {:e}", refined.berr);
        assert!(max_residual(&t, &refined.x, &b) < 1e-9);
    }

    #[test]
    fn wrong_rhs_length_rejected() {
        let lu = SparseLu::factor(&grid_laplacian(4, 4).to_csr()).unwrap();
        assert!(lu.solve(&[1.0; 3]).is_err());
    }

    #[test]
    fn factor_nnz_reports_fill() {
        let a = grid_laplacian(10, 10).to_csr();
        let sym = SymbolicLu::analyze(&a).unwrap();
        // Factors hold at least the matrix pattern, at most dense.
        assert!(sym.factor_nnz() >= a.nnz());
        assert!(sym.factor_nnz() < 100 * 100);
        assert_eq!(sym.dim(), 100);
        assert_eq!(sym.perm().len(), 100);
    }

    #[test]
    fn stats_reflect_block_and_supernode_structure() {
        // Connected grid: one irreducible block, real supernodes.
        let a = grid_laplacian(10, 10).to_csr();
        let sym = SymbolicLu::analyze(&a).unwrap();
        let s = sym.stats();
        assert_eq!(s.num_blocks, 1);
        assert_eq!(s.max_block_dim, 100);
        assert!(s.num_supernodes >= 1 && s.num_supernodes < 100);
        assert!(s.max_supernode_width > 1);
        assert_eq!(s.factor_nnz, sym.factor_nnz());
        // Triangular pattern: all-singleton blocks.
        let n = 12;
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0);
            for j in 0..i {
                if (i + j) % 3 == 0 {
                    t.push(i, j, -1.0);
                }
            }
        }
        let sym = SymbolicLu::analyze(&t.to_csr()).unwrap();
        let s = sym.stats();
        assert_eq!(s.num_blocks, n);
        assert_eq!(s.max_block_dim, 1);
        // Reference path reports the degenerate view.
        let sref = SymbolicLu::analyze_reference(&t.to_csr()).unwrap().stats();
        assert_eq!(sref.num_blocks, 1);
        assert_eq!(sref.max_block_dim, n);
    }

    #[test]
    fn reducible_system_solves_through_block_back_substitution() {
        // Block upper triangular by construction (scrambled), so the
        // off-diagonal path is actually exercised.
        let n = 40;
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 3.0 + (i % 4) as f64);
            // Coupling strictly "forward" in groups of 5.
            let g = i / 5;
            if (g + 1) * 5 < n {
                t.push(i, (g + 1) * 5 + i % 5, -0.7);
            }
            // In-group ring coupling.
            let j = g * 5 + (i + 1) % 5;
            t.push(i, j, -0.4);
        }
        let csr = t.to_csr();
        let lu = SparseLu::factor(&csr).unwrap();
        assert!(lu.stats().num_blocks > 1, "stats: {:?}", lu.stats());
        let b: Vec<f64> = (0..n).map(|i| (0.3 * i as f64).sin()).collect();
        let x = lu.solve(&b).unwrap();
        assert!(max_residual(&t, &x, &b) < 1e-10);
    }

    #[test]
    fn pre_cancelled_budget_is_typed() {
        let a = grid_laplacian(8, 8).to_csr();
        let sym = Arc::new(SymbolicLu::analyze(&a).unwrap());
        let token = CancelToken::new();
        token.cancel();
        let budget = SolveBudget::unlimited().with_cancel(token);
        match SparseLu::factor_with_budget(sym, &a, &budget, &ParallelConfig::serial()) {
            Err(NumericError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn thread_count_does_not_change_values() {
        // Many independent blocks so the parallel path has real work to
        // schedule.
        let n = 120;
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0 + (i % 7) as f64 * 0.3);
            let g = i / 6;
            let j = g * 6 + (i + 1) % 6;
            t.push(i, j, -0.5);
            if (g + 1) * 6 < n {
                t.push(i, (g + 1) * 6 + i % 6, 0.25);
            }
        }
        let csr = t.to_csr();
        let sym = Arc::new(SymbolicLu::analyze(&csr).unwrap());
        assert!(sym.stats().num_blocks >= n / 6);
        let unl = SolveBudget::unlimited();
        let lu1 =
            SparseLu::factor_with_budget(Arc::clone(&sym), &csr, &unl, &ParallelConfig::serial())
                .unwrap();
        let lu4 = SparseLu::factor_with_budget(
            Arc::clone(&sym),
            &csr,
            &unl,
            &ParallelConfig::with_threads(4),
        )
        .unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.21).sin()).collect();
        // Bit-identical, not merely close.
        assert_eq!(lu1.solve(&b).unwrap(), lu4.solve(&b).unwrap());
    }

    /// Bit patterns of a factor or solve value, so that `-0.0` and
    /// `+0.0` differ.
    trait Bits: Scalar {
        fn bits(self) -> [u64; 2];
    }
    impl Bits for f64 {
        fn bits(self) -> [u64; 2] {
            [self.to_bits(), 0]
        }
    }
    impl Bits for Complex64 {
        fn bits(self) -> [u64; 2] {
            [self.re.to_bits(), self.im.to_bits()]
        }
    }
    fn bits<T: Bits>(v: &[T]) -> Vec<[u64; 2]> {
        v.iter().map(|&x| x.bits()).collect()
    }

    /// xorshift64* stream for the pattern generator.
    struct Rng(u64);
    impl Rng {
        fn new(seed: u64) -> Self {
            Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
        }
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
        fn coin(&mut self, p: f64) -> bool {
            self.unit() < p
        }
        fn shuffled(&mut self, n: usize) -> Vec<usize> {
            let mut p: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                p.swap(i, self.below(i + 1));
            }
            p
        }
    }

    /// A random block-triangular MNA-shaped system. Up to four
    /// conductance meshes of up to `max_side × max_side` nodes (plus
    /// random chords and ground leaks), each with coupled inductive
    /// branches and bordered by voltage-source rows with structurally
    /// zero diagonals, are coupled one way only, so the BTF finds
    /// several diagonal blocks. Some off-diagonal
    /// entries — every one of a few rows — are stored exact zeros
    /// (cancelling duplicates), leaving rows idle against some sources.
    /// Rows and columns are relabelled by one random permutation, or by
    /// two independent ones when `unsym` (the transversal-pairing path).
    fn random_btf_mna<T: Scalar>(
        rng: &mut Rng,
        max_side: usize,
        unsym: bool,
        val: impl Fn(&mut Rng) -> T,
    ) -> CsrMatrix<T> {
        let mut ents: Vec<(usize, usize, T)> = Vec::new();
        let mut groups: Vec<std::ops::Range<usize>> = Vec::new();
        let mut n = 0;
        let zero_frac = rng.unit() * 0.3;
        for _ in 0..1 + rng.below(4) {
            let (w, h) = (1 + rng.below(max_side), 1 + rng.below(max_side));
            let (base, nn) = (n, w * h);
            n += nn;
            let idle: Vec<bool> = (0..nn).map(|_| rng.coin(0.1)).collect();
            let off_entry = |rng: &mut Rng, ents: &mut Vec<_>, i: usize, j: usize, v: T| {
                if idle[i - base] || rng.coin(zero_frac) {
                    ents.push((i, j, v));
                    ents.push((i, j, -v));
                } else {
                    ents.push((i, j, v));
                }
            };
            let edge = |rng: &mut Rng, ents: &mut Vec<_>, i: usize, j: usize| {
                let g = val(rng);
                ents.push((i, i, g));
                ents.push((j, j, g));
                off_entry(rng, ents, i, j, -g);
                off_entry(rng, ents, j, i, -g);
            };
            for y in 0..h {
                for x in 0..w {
                    let i = base + y * w + x;
                    if x + 1 < w {
                        edge(rng, &mut ents, i, i + 1);
                    }
                    if y + 1 < h {
                        edge(rng, &mut ents, i, i + w);
                    }
                    if rng.coin(0.7) {
                        ents.push((i, i, val(rng)));
                    }
                }
            }
            for _ in 0..rng.below(nn / 4 + 1) {
                let (i, j) = (base + rng.below(nn), base + rng.below(nn));
                if i != j {
                    edge(rng, &mut ents, i, j);
                }
            }
            // Coupled inductive branches, as PEEC stamps them: each
            // branch current joins two nodes by ±1 incidence, and the
            // branch rows carry a dense block of (self and mutual)
            // inductances, some mutuals exact zeros. These dense blocks
            // make the wide supernodes whose updates take the GEMM path.
            let branches = rng.below(8 * max_side);
            let first = n;
            n += branches;
            for r in first..n {
                let (p, q) = (base + rng.below(nn), base + rng.below(nn));
                ents.push((r, p, T::one()));
                ents.push((p, r, T::one()));
                if q != p {
                    ents.push((r, q, -T::one()));
                    ents.push((q, r, -T::one()));
                }
                for c in first..n {
                    let m = -val(rng);
                    ents.push((r, c, m));
                    if c != r && rng.coin(zero_frac) {
                        ents.push((r, c, -m));
                    }
                }
            }
            for _ in 0..rng.below(4) {
                let r = n;
                n += 1;
                for (k, p) in [base + rng.below(nn), base + rng.below(nn)]
                    .into_iter()
                    .enumerate()
                {
                    if k == 0 || rng.coin(0.5) {
                        let s = T::from_f64(if k == 0 { 1.0 } else { -1.0 });
                        ents.push((r, p, s));
                        ents.push((p, r, s));
                    }
                }
            }
            groups.push(base..n);
        }
        // One-way couplings: rows of earlier groups reach columns of
        // later ones, never back.
        for _ in 0..rng.below(3 * groups.len()) {
            let (a, b) = (rng.below(groups.len()), rng.below(groups.len()));
            if a < b {
                let pick = |rng: &mut Rng, g: &std::ops::Range<usize>| g.start + rng.below(g.len());
                let (i, j) = (pick(rng, &groups[a]), pick(rng, &groups[b]));
                ents.push((i, j, val(rng)));
            }
        }
        let pr = rng.shuffled(n);
        let pc = if unsym { rng.shuffled(n) } else { pr.clone() };
        let mut t = Triplets::new(n, n);
        for (i, j, v) in ents {
            t.push(pr[i], pc[j], v);
        }
        t.to_csr()
    }

    /// Factors and solves `a` on the flat layout at 1 and 3 threads and
    /// asserts every factor value, the solution and any error equal the
    /// per-row oracle's, bit for bit.
    fn assert_flat_matches_oracle<T: Bits>(a: &CsrMatrix<T>, b: &[T], label: &str) {
        // A structurally singular draw has nothing to factor.
        let Ok(sym) = SymbolicLu::analyze(a) else {
            return;
        };
        let sym = Arc::new(sym);
        let SymRepr::Klu(k) = &sym.repr else {
            panic!("analyze takes the KLU path");
        };
        let want = oracle::KluSym::of(k).factor_and_solve(a, b);
        for threads in [1, 3] {
            let cfg = ParallelConfig::with_threads(threads);
            let got =
                SparseLu::factor_with_budget(Arc::clone(&sym), a, &SolveBudget::unlimited(), &cfg);
            match (&want, got) {
                (Ok(([l, u, off], x)), Ok(lu)) => {
                    let Factors::Klu {
                        l: fl,
                        u: fu,
                        off: foff,
                    } = &lu.vals
                    else {
                        panic!("KLU pattern with per-row values");
                    };
                    assert!(
                        bits(fl) == bits(l),
                        "{label}: L values differ at {threads} threads"
                    );
                    assert!(
                        bits(fu) == bits(u),
                        "{label}: U values differ at {threads} threads"
                    );
                    assert!(
                        bits(foff) == bits(off),
                        "{label}: coupling differs at {threads} threads"
                    );
                    let fx = lu.solve(b).unwrap();
                    assert!(
                        bits(&fx) == bits(x),
                        "{label}: solve differs at {threads} threads"
                    );
                }
                (Err(e), Err(f)) => {
                    assert_eq!(*e, f, "{label}: errors differ at {threads} threads")
                }
                (w, g) => panic!(
                    "{label}: oracle {:?} vs flat {:?}",
                    w.as_ref().err(),
                    g.err()
                ),
            }
        }
    }

    fn real(rng: &mut Rng) -> f64 {
        0.05 + 2.0 * rng.unit()
    }

    fn complex(rng: &mut Rng) -> Complex64 {
        Complex64::new(0.05 + 2.0 * rng.unit(), 2.0 * rng.unit() - 1.0)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        #[test]
        fn flat_layout_matches_per_row_oracle_bit_for_bit(
            seed in 0u64..1_000_000_000,
            max_side in 1usize..19,
            unsym in proptest::prelude::prop::bool::ANY,
        ) {
            let label = format!("seed {seed}, max_side {max_side}, unsym {unsym}");
            let mut rng = Rng::new(seed);
            let a = random_btf_mna(&mut rng, max_side, unsym, real);
            let b: Vec<f64> = (0..a.nrows()).map(|_| real(&mut rng) - 1.0).collect();
            assert_flat_matches_oracle(&a, &b, &label);
            let mut rng = Rng::new(seed);
            let a = random_btf_mna(&mut rng, max_side, unsym, complex);
            let b: Vec<Complex64> = (0..a.nrows()).map(|_| complex(&mut rng)).collect();
            assert_flat_matches_oracle(&a, &b, &label);
        }
    }

    #[test]
    fn flat_layout_matches_per_row_oracle_on_wide_panels() {
        // Dense inductive blocks of up to 111 branches: supernodes wide
        // enough that their updates take the GEMM path, with idle rows
        // and padded panels among them.
        for seed in 0..6 {
            let mut rng = Rng::new(seed);
            let a = random_btf_mna(&mut rng, 14, false, real);
            let b: Vec<f64> = (0..a.nrows()).map(|_| real(&mut rng) - 1.0).collect();
            assert_flat_matches_oracle(&a, &b, &format!("wide seed {seed}"));
        }
    }
}


#[cfg(test)]
mod pivot_stability {
    use super::*;
    use crate::sparse::Triplets;

    /// Growth bound under which the factorization counts as stable for
    /// this 5x5 repro (entries are O(1e2); the transversal pairing
    /// produced |U| of O(1e9) here before per-block re-pairing).
    const GROWTH_LIMIT: f64 = 1.0e5;

    /// Regression: an MNA-shaped system (near-cancelling conductances,
    /// a gmin-sized diagonal residue, voltage-source incidence rows)
    /// on which static pivoting along the raw transversal matching
    /// suffers catastrophic element growth. The per-block symmetric
    /// re-pairing must keep the factors bounded and the refined solve
    /// near the dense-pivoted answer.
    #[test]
    fn mna_repro_stays_stable_without_numerical_pivoting() {
        let n = 5;
        let mut t = Triplets::new(n, n);
        let ent: &[(usize, usize, f64)] = &[
            (0, 0, 61.57665452859786),
            (0, 2, -61.57665452759786),
            (1, 1, 40.6600171384553),
            (1, 2, -40.660017137455306),
            (1, 3, 1.0),
            (2, 0, -61.57665452759786),
            (2, 1, -40.660017137455306),
            (2, 2, 102.23667166605317),
            (2, 3, -1.0),
            (2, 4, 1.0),
            (3, 1, 1.0),
            (3, 2, -1.0),
            (4, 2, 1.0),
            (4, 4, -0.43097013163932363),
        ];
        for &(i, j, v) in ent {
            t.push(i, j, v);
        }
        let csr = t.to_csr();
        let lu = SparseLu::factor(&csr).unwrap();
        let Factors::Klu { u, .. } = &lu.vals else {
            panic!("SparseLu::factor takes the KLU path");
        };
        let growth = u.iter().fold(0.0f64, |m, v| m.max(v.abs_val()));
        assert!(
            growth < GROWTH_LIMIT,
            "element growth {growth:e} exceeds {GROWTH_LIMIT:e}"
        );
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 0.1).collect();
        let x = lu.solve_refined(&csr, &b).unwrap().x;
        let ax = csr.matvec(&x).unwrap();
        let res = ax
            .iter()
            .zip(&b)
            .map(|(a, c)| (a - c).abs())
            .fold(0.0f64, f64::max);
        assert!(res < 1e-8, "refined residual {res:e} too large");
    }
}
