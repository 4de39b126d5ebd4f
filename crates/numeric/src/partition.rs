//! Deterministic work partitioning for parallel matrix kernels.
//!
//! Every O(n²) pass in the toolkit — partial-inductance assembly, the
//! capacitive coupling scan, the Section 4 sparsification screens —
//! walks the upper triangle of a symmetric n×n coupling structure. This
//! module provides the one scheduling primitive they all share:
//! contiguous *row blocks* balanced by triangle area, executed on
//! `std::thread::scope` threads.
//!
//! Determinism guarantee: the partition is a pure function of
//! `(n, blocks)`, every (i, j) entry is computed by exactly one thread
//! with the same per-entry arithmetic as the serial loop, and block
//! results are combined in block order. Results are therefore
//! **bit-identical** across thread counts — the differential tests in
//! `crates/extract/tests/parallel_differential.rs` assert exactly that.

use std::num::NonZeroUsize;
use std::ops::Range;

/// Parallelism/caching configuration threaded through the extraction
/// and sparsification entry points.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker thread count (≥ 1). The partitioning is deterministic, so
    /// this only affects speed, never results.
    pub threads: usize,
    /// Capacity (entries) of the GMD memoization cache shared across an
    /// extraction run; 0 disables caching.
    pub cache_capacity: usize,
}

/// GMD memoization capacity of every constructor, entries.
const DEFAULT_CACHE_CAPACITY: usize = 1 << 20;

impl Default for ParallelConfig {
    /// All available hardware threads, with a generously sized cache.
    fn default() -> Self {
        Self::with_threads(available_threads())
    }
}

impl ParallelConfig {
    /// Single-threaded configuration (still uses the cache).
    pub fn serial() -> Self {
        Self::with_threads(1)
    }

    /// Configuration with an explicit thread count. Unlike
    /// [`ParallelConfig::default`] it does not query the machine's
    /// parallelism, which reads cgroup files on Linux.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads > 0, "thread count must be positive");
        Self {
            threads,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
        }
    }

    /// The share of this configuration each of `workers` concurrent
    /// workers may use: `threads / workers`, at least one. A worker of
    /// a sweep that already spreads its items over every thread runs
    /// its kernels serially rather than fanning out again.
    #[must_use]
    pub fn share(&self, workers: usize) -> Self {
        Self {
            threads: (self.threads / workers.max(1)).max(1),
            cache_capacity: self.cache_capacity,
        }
    }

    /// Number of row blocks to cut an `n`-row problem into.
    pub fn blocks_for(&self, n: usize) -> usize {
        self.threads.max(1).min(n.max(1))
    }
}

/// The machine's available parallelism (1 if unknown).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Cuts `0..n` into at most `blocks` contiguous row ranges balanced by
/// upper-triangle work: row `i` of the triangle costs `n − i` entries
/// (diagonal included), so early rows are expensive and late rows are
/// cheap. The result always covers `0..n` exactly, in order, with no
/// empty ranges.
///
/// # Panics
///
/// Panics if `blocks` is zero.
pub fn triangle_row_blocks(n: usize, blocks: usize) -> Vec<Range<usize>> {
    assert!(blocks > 0, "need at least one block");
    let blocks = blocks.min(n.max(1));
    if n == 0 {
        // One empty range, not the elements of `0..0`.
        return std::iter::once(0..0).collect();
    }
    let total: u128 = (n as u128) * (n as u128 + 1) / 2;
    let mut out = Vec::with_capacity(blocks);
    let mut start = 0usize;
    let mut done: u128 = 0;
    for b in 0..blocks {
        // Rows remaining must at least cover the remaining blocks.
        let target = total * (b as u128 + 1) / blocks as u128;
        let mut end = start;
        while end < n && (done < target || end == start) {
            done += (n - end) as u128;
            end += 1;
        }
        // Leave one row for each remaining block.
        let reserve = blocks - b - 1;
        end = end.min(n - reserve);
        end = end.max(start + 1);
        out.push(start..end);
        start = end;
    }
    if let Some(last) = out.last_mut() {
        last.end = n;
    }
    out
}

/// Cuts `0..n` into at most `blocks` near-equal contiguous ranges (for
/// uniform per-row work).
///
/// # Panics
///
/// Panics if `blocks` is zero.
pub fn uniform_row_blocks(n: usize, blocks: usize) -> Vec<Range<usize>> {
    assert!(blocks > 0, "need at least one block");
    let blocks = blocks.min(n.max(1));
    if n == 0 {
        // One empty range, not the elements of `0..0`.
        return std::iter::once(0..0).collect();
    }
    (0..blocks)
        .map(|b| (b * n / blocks)..((b + 1) * n / blocks))
        .collect()
}

/// Splits a row-major buffer (`ncols` elements per row) along the given
/// row ranges and runs `f(rows, chunk)` for each — on scoped worker
/// threads when there is more than one range, inline otherwise.
///
/// The ranges must be exactly those produced by [`triangle_row_blocks`]
/// or [`uniform_row_blocks`]: contiguous, in order, covering all rows
/// of the buffer.
///
/// # Panics
///
/// Panics if the ranges do not tile the buffer, or if a worker panics.
pub fn for_each_row_chunk<T, F>(data: &mut [T], ncols: usize, ranges: &[Range<usize>], f: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    if let [only] = ranges {
        assert_eq!(data.len(), (only.end - only.start) * ncols, "range/buffer mismatch");
        f(only.clone(), data);
        return;
    }
    let mut rest = data;
    let mut expected_start = ranges.first().map_or(0, |r| r.start);
    std::thread::scope(|scope| {
        for r in ranges {
            assert_eq!(r.start, expected_start, "ranges must be contiguous and ordered");
            expected_start = r.end;
            let len = (r.end - r.start) * ncols;
            let (chunk, tail) = rest.split_at_mut(len);
            rest = tail;
            let f = &f;
            let r = r.clone();
            scope.spawn(move || f(r, chunk));
        }
        assert!(rest.is_empty(), "ranges must cover the whole buffer");
    });
}

/// Runs `f` over each row range — on scoped worker threads when there
/// is more than one range — and concatenates the per-block vectors in
/// block order. The combined result is identical to running the blocks
/// serially in order (deterministic reduction).
///
/// # Panics
///
/// Panics if a worker panics.
pub fn collect_row_blocks<T, F>(ranges: &[Range<usize>], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> Vec<T> + Sync,
{
    map_scoped(ranges.to_vec(), f)
        .into_iter()
        .flatten()
        .collect()
}

/// Runs `f` on each item — on scoped worker threads when there is more
/// than one — and returns the results in item order. Items carry what
/// a worker owns (disjoint `&mut` slices, say), so no state is shared
/// beyond what `f` borrows.
///
/// # Panics
///
/// Panics if a worker panics.
pub(crate) fn map_scoped<I, R, F>(items: Vec<I>, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    if items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| {
                let f = &f;
                scope.spawn(move || f(item))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                // Re-raise the worker's panic payload in this thread.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    })
}

/// Runs `f` on each item — on scoped worker threads when there is more
/// than one — and returns the results in item order, but polls a
/// [`crate::CancelToken`] before every item: items whose work had not
/// started when the token fired yield `None` instead of running.
/// Positions are preserved — the result has exactly one entry per item,
/// in item order — so a partially cancelled sweep still reports
/// deterministically *which* blocks completed. Items already running
/// when the token fired finish normally (workers may additionally poll
/// the token themselves for finer-grained cuts). An item carries what
/// its worker owns: a row range, say, and the worker's own state.
///
/// # Panics
///
/// Panics if a worker panics.
pub fn map_until<I, T, F>(items: Vec<I>, cancel: &crate::CancelToken, f: F) -> Vec<Option<T>>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    map_scoped(items, |item| (!cancel.is_cancelled()).then(|| f(item)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_cover(n: usize, ranges: &[Range<usize>]) {
        let mut next = 0;
        for r in ranges {
            assert_eq!(r.start, next);
            assert!(r.end > r.start || n == 0);
            next = r.end;
        }
        assert_eq!(next, n);
    }

    #[test]
    fn triangle_blocks_cover_and_balance() {
        for n in [1usize, 2, 5, 17, 100, 1001] {
            for blocks in [1usize, 2, 3, 8, 64] {
                let ranges = triangle_row_blocks(n, blocks);
                check_cover(n, &ranges);
                assert!(ranges.len() <= blocks);
                if blocks <= n && blocks > 1 && n >= 64 {
                    // Balanced to within 2× of the ideal share.
                    let total = n * (n + 1) / 2;
                    let ideal = total / ranges.len();
                    for r in &ranges {
                        let work: usize = r.clone().map(|i| n - i).sum();
                        assert!(work <= 2 * ideal + n, "block {r:?} work {work} vs ideal {ideal}");
                    }
                }
            }
        }
    }

    #[test]
    fn triangle_first_block_is_narrow() {
        // Early rows are the expensive ones: with 4 blocks over 100
        // rows, the first block must hold far fewer than 25 rows.
        let ranges = triangle_row_blocks(100, 4);
        assert!(ranges[0].end - ranges[0].start < 25, "{ranges:?}");
        let last = ranges.last().unwrap();
        assert!(last.end - last.start > 25, "{ranges:?}");
    }

    #[test]
    fn uniform_blocks_cover() {
        for n in [0usize, 1, 7, 64, 1000] {
            for blocks in [1usize, 2, 5, 16] {
                check_cover(n, &uniform_row_blocks(n, blocks));
            }
        }
    }

    #[test]
    fn row_chunks_tile_the_buffer() {
        let n = 10usize;
        let ncols = 4usize;
        let mut data = vec![0usize; n * ncols];
        let ranges = triangle_row_blocks(n, 3);
        for_each_row_chunk(&mut data, ncols, &ranges, |rows, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = rows.start * ncols + k;
            }
        });
        // Every cell got its own global index exactly once.
        for (k, v) in data.iter().enumerate() {
            assert_eq!(*v, k);
        }
    }

    #[test]
    fn collect_blocks_preserves_order() {
        let ranges = triangle_row_blocks(100, 7);
        let got = collect_row_blocks(&ranges, |rows| rows.collect::<Vec<_>>());
        let want: Vec<usize> = (0..100).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn map_until_yields_all_when_not_cancelled() {
        let ranges = uniform_row_blocks(40, 4);
        let token = crate::CancelToken::new();
        let got = map_until(ranges, &token, |rows| rows.len());
        assert_eq!(got, vec![Some(10); 4]);
    }

    #[test]
    fn map_until_skips_everything_when_pre_cancelled() {
        let ranges = uniform_row_blocks(40, 4);
        let token = crate::CancelToken::new();
        token.cancel();
        let got = map_until(ranges, &token, |rows| rows.len());
        assert_eq!(got.len(), 4);
        assert!(got.iter().all(Option::is_none));
    }

    #[test]
    fn config_defaults_are_sane() {
        let cfg = ParallelConfig::default();
        assert!(cfg.threads >= 1);
        assert_eq!(ParallelConfig::serial().threads, 1);
        assert_eq!(ParallelConfig::with_threads(3).threads, 3);
        assert_eq!(cfg.blocks_for(2), 2.min(cfg.threads));
        assert_eq!(ParallelConfig::with_threads(8).blocks_for(4), 4);
        assert_eq!(ParallelConfig::serial().cache_capacity, cfg.cache_capacity);
    }

    #[test]
    fn share_splits_threads_among_workers() {
        let cfg = ParallelConfig::with_threads(8);
        assert_eq!(cfg.share(1), cfg);
        assert_eq!(cfg.share(3).threads, 2);
        assert_eq!(cfg.share(8).threads, 1);
        assert_eq!(cfg.share(20).threads, 1);
        assert_eq!(cfg.share(0), cfg);
        assert_eq!(cfg.share(2).cache_capacity, cfg.cache_capacity);
    }
}
