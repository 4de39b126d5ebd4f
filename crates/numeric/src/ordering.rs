//! Bandwidth-reducing node orderings.
//!
//! MNA matrices of on-chip grids are structurally mesh-like; the reverse
//! Cuthill–McKee (RCM) ordering compresses them into a narrow band so
//! the banded LU of [`crate::BandedMatrix`] factors them in
//! `O(n·(kl+ku)²)` instead of `O(n³)`.

use crate::{NumericError, Result};
use std::collections::VecDeque;

/// A permutation of `0..n`, stored as `perm[new_index] = old_index`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Permutation {
    forward: Vec<usize>,
    inverse: Vec<usize>,
}

impl Permutation {
    /// Builds a permutation from `perm[new] = old`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::IndexOutOfRange`] if `forward` is not a
    /// permutation of `0..n`.
    pub fn from_forward(forward: Vec<usize>) -> Result<Self> {
        let n = forward.len();
        let mut inverse = vec![usize::MAX; n];
        for (new, &old) in forward.iter().enumerate() {
            if old >= n || inverse[old] != usize::MAX {
                return Err(NumericError::IndexOutOfRange { index: old, len: n });
            }
            inverse[old] = new;
        }
        Ok(Self { forward, inverse })
    }

    /// Identity permutation of length `n`.
    pub fn identity(n: usize) -> Self {
        Self {
            forward: (0..n).collect(),
            inverse: (0..n).collect(),
        }
    }

    /// Length of the permutation.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// Whether the permutation is empty.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// Old index at new position `new`.
    #[inline]
    pub fn old_of(&self, new: usize) -> usize {
        self.forward[new]
    }

    /// New position of old index `old`.
    #[inline]
    pub fn new_of(&self, old: usize) -> usize {
        self.inverse[old]
    }

    /// Permutes a vector from old ordering into new ordering.
    pub fn apply<T: Copy>(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.len());
        self.forward.iter().map(|&old| x[old]).collect()
    }

    /// Scatters a vector from new ordering back to old ordering.
    pub fn apply_inverse<T: Copy>(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.len());
        self.inverse.iter().map(|&new| x[new]).collect()
    }
}

/// Computes the reverse Cuthill–McKee ordering of an undirected graph
/// given as adjacency lists.
///
/// Each connected component is started from a pseudo-peripheral vertex
/// (minimum degree heuristic with one BFS refinement); within a level,
/// vertices are visited in increasing degree.
pub fn reverse_cuthill_mckee(adj: &[Vec<usize>]) -> Permutation {
    let n = adj.len();
    let degree: Vec<usize> = adj.iter().map(Vec::len).collect();
    let mut visited = vec![false; n];
    let mut order: Vec<usize> = Vec::with_capacity(n);

    // Process components in order of their minimum-degree representative.
    let mut candidates: Vec<usize> = (0..n).collect();
    candidates.sort_by_key(|&v| (degree[v], v));

    for &seed in &candidates {
        if visited[seed] {
            continue;
        }
        let start = pseudo_peripheral(seed, adj, &degree);
        let mut queue = VecDeque::new();
        visited[start] = true;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut nbrs: Vec<usize> = adj[v].iter().copied().filter(|&u| !visited[u]).collect();
            nbrs.sort_by_key(|&u| (degree[u], u));
            for u in nbrs {
                visited[u] = true;
                queue.push_back(u);
            }
        }
    }
    order.reverse();
    // BFS visits each vertex exactly once, so this cannot fail; fall
    // back to the identity ordering rather than panicking if it ever
    // does (identity is always a *valid* ordering, just a slow one).
    let n = order.len();
    Permutation::from_forward(order).unwrap_or_else(|_| Permutation::identity(n))
}

/// One BFS hop toward a pseudo-peripheral vertex: from `seed`, find the
/// farthest BFS level and return its minimum-degree member.
fn pseudo_peripheral(seed: usize, adj: &[Vec<usize>], degree: &[usize]) -> usize {
    let mut current = seed;
    let mut last_ecc = 0usize;
    for _ in 0..4 {
        let (far, ecc) = bfs_farthest(current, adj, degree);
        if ecc <= last_ecc {
            break;
        }
        last_ecc = ecc;
        current = far;
    }
    current
}

fn bfs_farthest(start: usize, adj: &[Vec<usize>], degree: &[usize]) -> (usize, usize) {
    let n = adj.len();
    let mut dist = vec![usize::MAX; n];
    dist[start] = 0;
    let mut queue = VecDeque::from([start]);
    let mut best = (start, 0usize);
    while let Some(v) = queue.pop_front() {
        for &u in &adj[v] {
            if dist[u] == usize::MAX {
                dist[u] = dist[v] + 1;
                if dist[u] > best.1 || (dist[u] == best.1 && degree[u] < degree[best.0]) {
                    best = (u, dist[u]);
                }
                queue.push_back(u);
            }
        }
    }
    best
}

/// Half-bandwidths `(kl, ku)` of a sparsity pattern under a permutation:
/// `kl = max(new_i − new_j)` over stored `(i, j)` with `new_i > new_j`,
/// `ku` the symmetric quantity. `pattern` yields each stored `(i, j)`.
pub fn bandwidth(
    pattern: impl IntoIterator<Item = (usize, usize)>,
    perm: &Permutation,
) -> (usize, usize) {
    let mut kl = 0usize;
    let mut ku = 0usize;
    for (i, j) in pattern {
        let ni = perm.new_of(i);
        let nj = perm.new_of(j);
        if ni >= nj {
            kl = kl.max(ni - nj);
        }
        if nj >= ni {
            ku = ku.max(nj - ni);
        }
    }
    (kl, ku)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Vec<Vec<usize>> {
        (0..n)
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
            .collect()
    }

    #[test]
    fn permutation_round_trip() {
        let p = Permutation::from_forward(vec![2, 0, 1]).unwrap();
        let x = [10.0, 20.0, 30.0];
        let y = p.apply(&x);
        assert_eq!(y, vec![30.0, 10.0, 20.0]);
        assert_eq!(p.apply_inverse(&y), x.to_vec());
    }

    #[test]
    fn invalid_permutation_rejected() {
        assert!(Permutation::from_forward(vec![0, 0]).is_err());
        assert!(Permutation::from_forward(vec![0, 5]).is_err());
    }

    #[test]
    fn rcm_on_path_keeps_unit_bandwidth() {
        let adj = path_graph(10);
        let p = reverse_cuthill_mckee(&adj);
        let pattern: Vec<(usize, usize)> = (0..9).map(|i| (i, i + 1)).collect();
        let (kl, ku) = bandwidth(pattern.iter().copied(), &p);
        assert!(kl <= 1 && ku <= 1, "path graph must stay tridiagonal");
    }

    #[test]
    fn rcm_reduces_grid_bandwidth() {
        // 2-D grid graph of w x h; natural ordering bandwidth = w.
        let (w, h) = (8usize, 8usize);
        let idx = |x: usize, y: usize| y * w + x;
        let mut adj = vec![Vec::new(); w * h];
        let mut pattern = Vec::new();
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    adj[idx(x, y)].push(idx(x + 1, y));
                    adj[idx(x + 1, y)].push(idx(x, y));
                    pattern.push((idx(x, y), idx(x + 1, y)));
                }
                if y + 1 < h {
                    adj[idx(x, y)].push(idx(x, y + 1));
                    adj[idx(x, y + 1)].push(idx(x, y));
                    pattern.push((idx(x, y), idx(x, y + 1)));
                }
            }
        }
        let p = reverse_cuthill_mckee(&adj);
        let (kl, ku) = bandwidth(pattern.iter().copied(), &p);
        // RCM should achieve bandwidth close to the grid width.
        assert!(kl <= w + 2, "kl = {kl}");
        assert!(ku <= w + 2, "ku = {ku}");
    }

    #[test]
    fn rcm_handles_disconnected_graphs() {
        let mut adj = path_graph(3);
        adj.extend(vec![Vec::new(), Vec::new()]); // two isolated vertices
        let p = reverse_cuthill_mckee(&adj);
        assert_eq!(p.len(), 5);
        // Every vertex appears exactly once — from_forward validates this.
    }

    #[test]
    fn bandwidth_of_identity_ordering() {
        let p = Permutation::identity(4);
        let (kl, ku) = bandwidth([(3, 0), (0, 2)], &p);
        assert_eq!(kl, 3);
        assert_eq!(ku, 2);
    }
}
