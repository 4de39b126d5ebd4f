//! Order statistics and the seeded generator the workloads draw from.

/// Median and quartiles of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median (mean of the two middle values for an even count).
    pub median: f64,
    /// First quartile.
    pub p25: f64,
    /// Third quartile.
    pub p75: f64,
    /// Sample count.
    pub n: usize,
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median, or `None` for an empty set.
#[must_use]
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
    }
}

/// Quartiles with the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads computed here and by
/// an external Python check agree. A single sample is its own quartiles.
#[must_use]
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let ld = v.len();
    match ld {
        0 => None,
        1 => Some((v[0], v[0])),
        _ => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Some((q(1), q(3)))
        }
    }
}

/// Median and quartiles, or `None` for an empty set.
#[must_use]
pub fn summarize(xs: &[f64]) -> Option<Summary> {
    let (p25, p75) = quartiles(xs)?;
    Some(Summary {
        median: median(xs)?,
        p25,
        p75,
        n: xs.len(),
    })
}

/// Every fourth sample, starting from the `k`-th.
#[must_use]
pub fn quarter(xs: &[f64], k: usize) -> Vec<f64> {
    xs.iter().skip(k).step_by(4).copied().collect()
}

/// A statistic of a run's samples, and how well the run pins it down.
/// `median` holds `stat` of all samples. `p25` and `p75` are the
/// quartiles of `stat` over the four interleaved quarters of the samples
/// ([`quarter`]); each quarter spans the whole run. A quarter has a
/// quarter of the samples, so `stat` of all of them spreads about half
/// as much. `None` for an empty set.
#[must_use]
pub fn quartered(xs: &[f64], stat: impl Fn(&[f64]) -> Option<f64>) -> Option<Summary> {
    let parts: Vec<f64> = (0..4).filter_map(|k| stat(&quarter(xs, k))).collect();
    let (p25, p75) = quartiles(&parts)?;
    Some(Summary {
        median: stat(xs)?,
        p25,
        p75,
        n: xs.len(),
    })
}

/// Nearest-rank percentile (`q` in `(0, 1]`), or `None` for an empty set.
#[must_use]
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    let v = sorted(xs);
    let rank = (q * v.len() as f64).ceil() as usize;
    v.get(rank.clamp(1, v.len().max(1)) - 1).copied()
}

/// SplitMix64: a small, well-mixed, seedable generator. Every input a
/// workload builds comes from one of these, so a seed fixes the inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; `stream` separates independent draws
    /// made from the same seed.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream.rotate_left(32))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        assert_eq!(median(&xs), Some(5.5));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[4.0]), Some((4.0, 4.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn quartered_takes_the_statistic_of_interleaved_quarters() {
        // Quarters {1, 5}, {2, 6}, {3, 7}, {4, 8}: medians 3, 4, 5, 6.
        let xs: Vec<f64> = (1..=8).map(f64::from).collect();
        let s = quartered(&xs, median).unwrap();
        assert_eq!(s.median, 4.5);
        assert_eq!((s.p25, s.p75), (3.25, 5.75));
        assert_eq!(s.n, 8);
        // Fewer than four samples: each is a quarter of its own.
        let s = quartered(&[3.0, 1.0, 2.0], median).unwrap();
        assert_eq!((s.median, s.p25, s.p75), (2.0, 1.0, 3.0));
        assert_eq!(quartered(&[], median), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), Some(198.0));
        assert_eq!(percentile(&xs, 0.5), Some(100.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = {
            let mut r = Rng::new(3, 0);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(3, 0);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(4, 0);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
