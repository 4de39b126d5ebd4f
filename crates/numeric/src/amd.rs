//! Approximate-minimum-degree (AMD) fill-reducing ordering.
//!
//! The sparse LU/Cholesky kernels store the factors themselves sparsely,
//! so the ordering's objective is minimizing *fill-in* — and greedy
//! minimum degree on the quotient (elimination) graph is the classic
//! answer. It is the only fill-reducing ordering the toolkit computes;
//! [`crate::SymbolicLu::analyze`] runs it per diagonal block.
//!
//! The implementation follows the AMD family: eliminated pivots become
//! **elements** whose boundaries stand in for the clique their
//! elimination would create, adjacent elements are absorbed into the new
//! one, and degrees are the cheap upper bound
//! `|A_v| + Σ_e (|L_e| − 1)` rather than the exact external degree
//! (the "approximate" in AMD). Ties break to the lower vertex index.
//! Supervariables, aggressive absorption and the sharper `|L_e \ L_p|`
//! degree of full AMD (Amestoy, Davis & Duff 1996) are not implemented:
//! each would change the elimination order.
//!
//! # Data structures
//!
//! The quotient graph lives in flat index arrays. Each variable list
//! `A_v` is a slot of one copy of the input and is pruned in place,
//! since it only shrinks. Each element boundary `L_p` is appended once
//! to one growing array and never changes. One mark per vertex says
//! whether it is eliminated (its element live or absorbed) or already
//! in the boundary being built, so "a variable not yet in `L_p`" is one
//! comparison. The pivot queue is an indexed binary min-heap ordered by
//! the `(degree, vertex)` pair: each vertex holds one entry, re-keyed in
//! place when its degree changes. A lazy-deletion heap would push a new
//! entry on every degree update and then pop mostly stale ones.
//!
//! # Pivot deferral for structurally zero diagonals
//!
//! MNA matrices carry voltage-source rows whose diagonal is
//! *structurally* zero (the row is pure ±1 incidence). A static-pivot
//! factorization in an order that eliminates such a row before any of
//! its neighbours hits a hard zero pivot. The `defer` mask marks those
//! rows; a deferred row only becomes eligible once at least one of its
//! neighbours has been eliminated — at which point Gaussian elimination
//! has deposited sign-definite fill (`−Σ (±1)²/pivot`) on its diagonal.

use crate::ordering::Permutation;

/// Mark of an eliminated vertex whose element is live.
const ELEMENT: usize = usize::MAX - 1;
/// Mark of an eliminated vertex whose element was absorbed into a
/// later one.
const ABSORBED: usize = usize::MAX;

/// Computes an approximate-minimum-degree ordering of the symmetric
/// sparsity pattern given as adjacency lists (no self-loops, deduped —
/// the format produced by [`crate::CsrMatrix::adjacency`]).
///
/// `defer` marks vertices whose elimination must wait until at least one
/// neighbour has been eliminated (structurally zero diagonals under
/// static pivoting). Pass an empty slice for no deferral.
///
/// Returns a [`Permutation`] with `old_of(new)` = the vertex eliminated
/// at step `new`. The ordering is deterministic: ties break on vertex
/// index.
pub fn approximate_minimum_degree(adj: &[Vec<usize>], defer: &[bool]) -> Permutation {
    let n = adj.len();
    if n == 0 {
        return Permutation::identity(0);
    }
    let deferred = |v: usize| defer.get(v).copied().unwrap_or(false);

    // Quotient-graph state. `A_v` is `var[var_start[v]..][..var_len[v]]`;
    // `elems[v]` lists the elements adjacent to v (named by their pivot);
    // `L_p` is `bound[bound_start[p]..][..bound_len[p]]`.
    let mut var_start = Vec::with_capacity(n);
    let mut var: Vec<usize> = Vec::with_capacity(adj.iter().map(Vec::len).sum());
    for list in adj {
        var_start.push(var.len());
        var.extend_from_slice(list);
    }
    let mut var_len: Vec<usize> = adj.iter().map(Vec::len).collect();
    let mut elems: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut bound: Vec<usize> = Vec::new();
    let mut bound_start = vec![0usize; n];
    let mut bound_len = vec![0usize; n];
    // `mark[v]` is ELEMENT or ABSORBED once v is eliminated, and
    // otherwise the stamp of the last pivot whose boundary took v (0 for
    // none). Stamps count pivots from 1, so `mark[u] < stamp` reads "u is
    // a variable not yet in L_p".
    let mut mark = vec![0usize; n];
    let mut stamp = 0usize;
    let mut queue = DegreeHeap::new(&var_len);

    let mut order: Vec<usize> = Vec::with_capacity(n);
    while let Some(p) = queue.pop() {
        // A deferred vertex with no adjacent element has not had a
        // neighbour eliminated yet: it leaves the queue. Eliminating any
        // neighbour re-queues it, so nothing is lost — and vertices never
        // touched at all are swept up after the loop.
        if deferred(p) && elems[p].is_empty() {
            continue;
        }

        // --- Eliminate p: append the new element's boundary L_p. -----
        stamp += 1;
        mark[p] = ELEMENT;
        let lo = bound.len();
        for &u in &var[var_start[p]..var_start[p] + var_len[p]] {
            if mark[u] < stamp {
                mark[u] = stamp;
                bound.push(u);
            }
        }
        // Absorb the elements p touched; p replaces them.
        for el in std::mem::take(&mut elems[p]) {
            for i in bound_start[el]..bound_start[el] + bound_len[el] {
                let u = bound[i];
                if mark[u] < stamp {
                    mark[u] = stamp;
                    bound.push(u);
                }
            }
            mark[el] = ABSORBED;
        }
        order.push(p);
        bound_start[p] = lo;
        bound_len[p] = bound.len() - lo;

        // --- Update every boundary variable. -------------------------
        // All of L_p carries `mark == stamp`, so one pass drops both the
        // eliminated and the boundary-internal entries of each A_v.
        // Element p's boundary length must be in place first: it feeds
        // the approximate degree of each member.
        for i in lo..bound.len() {
            let v = bound[i];
            let first = var_start[v];
            let mut kept = first;
            for r in first..first + var_len[v] {
                let u = var[r];
                if mark[u] < stamp {
                    var[kept] = u;
                    kept += 1;
                }
            }
            var_len[v] = kept - first;
            let ev = &mut elems[v];
            ev.retain(|&el| mark[el] != ABSORBED);
            ev.push(p);
            let external: usize = ev.iter().map(|&el| bound_len[el].saturating_sub(1)).sum();
            queue.set(v, var_len[v] + external);
        }
    }

    // Degenerate leftovers (e.g. a deferred vertex with no neighbours at
    // all): append in index order so the result is a valid permutation.
    for (v, &m) in mark.iter().enumerate() {
        if m < ELEMENT {
            order.push(v);
        }
    }
    let len = order.len();
    Permutation::from_forward(order).unwrap_or_else(|_| Permutation::identity(len))
}

/// Slot of a vertex that is not in the queue.
const NOT_QUEUED: usize = usize::MAX;

/// Indexed binary min-heap of vertices keyed by `(degree, vertex)`,
/// one entry per vertex.
struct DegreeHeap {
    /// `(degree, vertex)` entries in heap order.
    heap: Vec<(usize, usize)>,
    /// Position of each vertex in `heap`, or [`NOT_QUEUED`].
    slot: Vec<usize>,
}

impl DegreeHeap {
    /// Queues every vertex `v` with degree `degree[v]`.
    fn new(degree: &[usize]) -> Self {
        let mut h = Self {
            heap: degree.iter().copied().zip(0..).collect(),
            slot: (0..degree.len()).collect(),
        };
        for i in (0..degree.len() / 2).rev() {
            h.sift_down(i);
        }
        h
    }

    /// Removes and returns the vertex with the least `(degree, vertex)`.
    fn pop(&mut self) -> Option<usize> {
        let last = self.heap.pop()?;
        let (_, v) = match self.heap.first_mut() {
            Some(root) => {
                let top = std::mem::replace(root, last);
                self.sift_down(0);
                top
            }
            None => last,
        };
        self.slot[v] = NOT_QUEUED;
        Some(v)
    }

    /// Sets `v`'s degree, queueing `v` if it is not queued.
    fn set(&mut self, v: usize, degree: usize) {
        let i = self.slot[v];
        if i == NOT_QUEUED {
            self.heap.push((degree, v));
            self.sift_up(self.heap.len() - 1);
        } else if degree < self.heap[i].0 {
            self.heap[i].0 = degree;
            self.sift_up(i);
        } else if degree > self.heap[i].0 {
            self.heap[i].0 = degree;
            self.sift_down(i);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        let item = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent] <= item {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, item);
    }

    fn sift_down(&mut self, mut i: usize) {
        let item = self.heap[i];
        let len = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && self.heap[right] < self.heap[left] {
                right
            } else {
                left
            };
            if item <= self.heap[child] {
                break;
            }
            self.place(i, self.heap[child]);
            i = child;
        }
        self.place(i, item);
    }

    fn place(&mut self, i: usize, item: (usize, usize)) {
        self.heap[i] = item;
        self.slot[item.1] = i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The lazy-deletion-heap AMD this module's data structures
    /// replaced, kept as the oracle for the elimination rule: per-vertex
    /// `Vec` lists, `retain` pruning, and a `BinaryHeap` that pushes a
    /// fresh `(degree, vertex, version)` entry on every degree change
    /// and drops stale ones on pop.
    fn approximate_minimum_degree_reference(adj: &[Vec<usize>], defer: &[bool]) -> Permutation {
        let n = adj.len();
        if n == 0 {
            return Permutation::identity(0);
        }
        let deferred = |v: usize| defer.get(v).copied().unwrap_or(false);

        // Quotient-graph state. `a[v]`: still-adjacent variables; `e[v]`:
        // adjacent elements (named by their pivot); `boundary[p]`: the
        // variables on element p's boundary; `absorbed[p]`: element p was
        // merged into a later element.
        let mut a: Vec<Vec<usize>> = adj.to_vec();
        let mut e: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut boundary: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut absorbed = vec![false; n];
        let mut eliminated = vec![false; n];
        let mut deg: Vec<usize> = adj.iter().map(Vec::len).collect();
        // Lazy-deletion heap: entries are (degree, vertex, version); stale
        // versions are dropped on pop.
        let mut version = vec![0u32; n];
        let mut heap: BinaryHeap<Reverse<(usize, usize, u32)>> =
            (0..n).map(|v| Reverse((deg[v], v, 0u32))).collect();

        // Membership stamps for set operations without hashing.
        let mut mark = vec![0u32; n];
        let mut stamp = 0u32;

        let mut order: Vec<usize> = Vec::with_capacity(n);
        while let Some(Reverse((d, p, ver))) = heap.pop() {
            if eliminated[p] || ver != version[p] || d != deg[p] {
                continue;
            }
            // A deferred vertex with no adjacent element has not had a
            // neighbour eliminated yet; skip it. Eliminating any neighbour
            // bumps its version and re-pushes it, so nothing is lost — and
            // vertices never touched at all are swept up after the loop.
            if deferred(p) && e[p].is_empty() {
                continue;
            }

            // --- Eliminate p: form the new element's boundary L_p. -------
            stamp += 1;
            let mut lp: Vec<usize> = Vec::new();
            for &v in &a[p] {
                if !eliminated[v] && mark[v] != stamp {
                    mark[v] = stamp;
                    lp.push(v);
                }
            }
            for &el in &e[p] {
                for &v in &boundary[el] {
                    if !eliminated[v] && v != p && mark[v] != stamp {
                        mark[v] = stamp;
                        lp.push(v);
                    }
                }
            }
            // Absorb the elements p touched; p replaces them.
            for &el in &e[p] {
                absorbed[el] = true;
                boundary[el].clear();
            }
            eliminated[p] = true;
            order.push(p);

            // --- Update every boundary variable. -------------------------
            // All of L_p carries `mark == stamp`, which lets the retains
            // below drop boundary-internal edges in one pass. Element p's
            // boundary must be in place first: it feeds the approximate
            // degree of each member.
            boundary[p] = lp;
            for i in 0..boundary[p].len() {
                let v = boundary[p][i];
                a[v].retain(|&u| u != p && !eliminated[u] && mark[u] != stamp);
                e[v].retain(|&el| !absorbed[el]);
                e[v].push(p);
                let mut d = a[v].len();
                for &el in &e[v] {
                    d += boundary[el].len().saturating_sub(1);
                }
                deg[v] = d;
                version[v] = version[v].wrapping_add(1);
                heap.push(Reverse((d, v, version[v])));
            }
        }

        // Degenerate leftovers (e.g. a deferred vertex with no neighbours at
        // all): append in index order so the result is a valid permutation.
        for v in 0..n {
            if !eliminated[v] {
                order.push(v);
            }
        }
        let len = order.len();
        Permutation::from_forward(order).unwrap_or_else(|_| Permutation::identity(len))
    }

    fn grid_adj(w: usize, h: usize) -> Vec<Vec<usize>> {
        let idx = |x: usize, y: usize| y * w + x;
        let mut adj = vec![Vec::new(); w * h];
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    adj[idx(x, y)].push(idx(x + 1, y));
                    adj[idx(x + 1, y)].push(idx(x, y));
                }
                if y + 1 < h {
                    adj[idx(x, y)].push(idx(x, y + 1));
                    adj[idx(x, y + 1)].push(idx(x, y));
                }
            }
        }
        adj
    }

    /// Dense-fill count of a symmetric elimination in a given order.
    fn fill_count(adj: &[Vec<usize>], perm: &Permutation) -> usize {
        let n = adj.len();
        let mut m = vec![vec![false; n]; n];
        for (i, nbrs) in adj.iter().enumerate() {
            for &j in nbrs {
                m[i][j] = true;
                m[j][i] = true;
            }
        }
        let mut fill = 0usize;
        for step in 0..n {
            let p = perm.old_of(step);
            let nbrs: Vec<usize> = (0..n)
                .filter(|&v| m[p][v] && v != p && perm.new_of(v) > step)
                .collect();
            for (ii, &u) in nbrs.iter().enumerate() {
                for &v in &nbrs[ii + 1..] {
                    if !m[u][v] {
                        m[u][v] = true;
                        m[v][u] = true;
                        fill += 1;
                    }
                }
            }
        }
        fill
    }

    #[test]
    fn amd_is_a_valid_permutation() {
        let adj = grid_adj(7, 5);
        let p = approximate_minimum_degree(&adj, &[]);
        assert_eq!(p.len(), 35);
        let mut seen = [false; 35];
        for new in 0..35 {
            assert!(!seen[p.old_of(new)]);
            seen[p.old_of(new)] = true;
        }
    }

    #[test]
    fn amd_beats_natural_order_on_grid_fill() {
        let adj = grid_adj(10, 10);
        let amd = approximate_minimum_degree(&adj, &[]);
        let natural = Permutation::identity(100);
        let f_amd = fill_count(&adj, &amd);
        let f_nat = fill_count(&adj, &natural);
        assert!(
            f_amd < f_nat,
            "AMD fill {f_amd} should beat natural {f_nat}"
        );
    }

    #[test]
    fn path_graph_orders_with_no_fill() {
        // Minimum degree on a path eliminates from the ends inward:
        // exactly zero fill.
        let n = 20;
        let adj: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                let mut v = Vec::new();
                if i > 0 {
                    v.push(i - 1);
                }
                if i + 1 < n {
                    v.push(i + 1);
                }
                v
            })
            .collect();
        let p = approximate_minimum_degree(&adj, &[]);
        assert_eq!(fill_count(&adj, &p), 0);
    }

    #[test]
    fn deferred_vertices_wait_for_a_neighbour() {
        // Star: center 0 adjacent to 1..=4; defer the center. It must
        // not be eliminated first.
        let mut adj = vec![vec![1, 2, 3, 4]];
        for _ in 0..4 {
            adj.push(vec![0]);
        }
        let defer = vec![true, false, false, false, false];
        let p = approximate_minimum_degree(&adj, &defer);
        assert_ne!(p.old_of(0), 0, "deferred center eliminated first");
    }

    #[test]
    fn fully_deferred_graph_still_permutes() {
        let adj = vec![vec![1], vec![0], vec![]];
        let defer = vec![true, true, true];
        let p = approximate_minimum_degree(&adj, &defer);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn deterministic_across_runs() {
        let adj = grid_adj(6, 6);
        let a = approximate_minimum_degree(&adj, &[]);
        let b = approximate_minimum_degree(&adj, &[]);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_graph() {
        let p = approximate_minimum_degree(&[], &[]);
        assert_eq!(p.len(), 0);
    }

    /// xorshift64 stream for the random graphs below.
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    /// A random symmetric graph on `n` vertices (edge probability
    /// `density`) and a deferral mask of the given kind: 0 none (empty
    /// slice), 1 every vertex, 2 random, 3 random plus isolated deferred
    /// vertices, 4 random but shorter than `n`. Lists come sorted or
    /// shuffled.
    fn random_case(seed: u64, n: usize, density: f64, mask: u32) -> (Vec<Vec<usize>>, Vec<bool>) {
        let mut next = rng(seed);
        let mut coin = |p: f64| ((next() >> 11) as f64 / (1u64 << 53) as f64) < p;
        let mut m = vec![vec![false; n]; n];
        for i in 0..n {
            for j in i + 1..n {
                if coin(density) {
                    m[i][j] = true;
                    m[j][i] = true;
                }
            }
        }
        let mut defer: Vec<bool> = match mask {
            0 => Vec::new(),
            1 => vec![true; n],
            _ => (0..n).map(|_| coin(0.3)).collect(),
        };
        if mask == 3 {
            for v in 0..n {
                if coin(0.1) {
                    for u in 0..n {
                        m[v][u] = false;
                        m[u][v] = false;
                    }
                    defer[v] = true;
                }
            }
        }
        if mask == 4 {
            defer.truncate(n / 2);
        }
        let shuffle = coin(0.5);
        let mut next = rng(seed ^ 0x5EED);
        let adj = m
            .iter()
            .map(|row| {
                let mut list: Vec<usize> = (0..n).filter(|&j| row[j]).collect();
                if shuffle {
                    for i in (1..list.len()).rev() {
                        list.swap(i, (next() % (i as u64 + 1)) as usize);
                    }
                }
                list
            })
            .collect();
        (adj, defer)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1000))]
        #[test]
        fn same_permutation_as_the_lazy_heap_oracle(
            seed in 0u64..1_000_000,
            n in 0usize..201,
            fill in 0u32..101,
            mask in 0u32..5,
        ) {
            // `fill` = 100 is a complete graph; squaring skews the rest
            // toward the sparse patterns circuits have.
            let density = (f64::from(fill) / 100.0).powi(2);
            let (adj, defer) = random_case(seed, n, density, mask);
            proptest::prop_assert_eq!(
                approximate_minimum_degree(&adj, &defer),
                approximate_minimum_degree_reference(&adj, &defer)
            );
        }
    }
}
