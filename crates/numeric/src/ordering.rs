//! Permutations of `0..n`: the row and column orders of the BTF form
//! ([`crate::BtfForm`]) and the fill-reducing AMD order
//! ([`crate::approximate_minimum_degree`]) of the sparse LU.

use crate::{NumericError, Result};

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
