//! Matrix generators and the geometric null-tile screen.
//!
//! Assembly samples a symmetric operator entry by entry. A generator that
//! knows where its rows and columns live (an RBF kernel over a point
//! cloud) can also bound the Frobenius norm of a whole tile without
//! evaluating it. When that bound is at most half the accuracy threshold,
//! the tile is stored [`Tile::Null`](crate::Tile::Null) directly: pivoted
//! QR stops at rank 0 exactly when the computed norm is at most the
//! threshold, so evaluating and compressing such a tile could only have
//! produced the same null tile. The ½ margin absorbs the rounding of the
//! computed norm; every tile the screen leaves goes through the unchanged
//! fill + compression path, so the assembled matrix is bit-identical with
//! or without a bound.

use crate::compress::CompressionConfig;
use std::ops::Range;

/// A symmetric matrix given entry by entry, optionally with a cheap upper
/// bound on the Frobenius norm of any off-diagonal tile.
pub trait TileGenerator: Sync {
    /// Entry `(i, j)` of the matrix.
    fn entry(&self, i: usize, j: usize) -> f64;

    /// An upper bound on `‖A[rows, cols]‖_F`, or `None` when the generator
    /// cannot bound the block (the default). Only called with disjoint
    /// row and column ranges.
    fn frobenius_bound(&self, _rows: Range<usize>, _cols: Range<usize>) -> Option<f64> {
        None
    }
}

/// Plain closures generate entries and never bound a tile.
impl<F: Fn(usize, usize) -> f64 + Sync> TileGenerator for F {
    #[inline]
    fn entry(&self, i: usize, j: usize) -> f64 {
        self(i, j)
    }
}

/// The shared null-tile predicate of every assembly path: the generator
/// proves `‖A[rows, cols]‖_F ≤ ½·accuracy`, so the tile is stored null
/// without being evaluated.
pub fn proven_null<G: TileGenerator + ?Sized>(
    gen: &G,
    rows: Range<usize>,
    cols: Range<usize>,
    config: &CompressionConfig,
) -> bool {
    gen.frobenius_bound(rows, cols)
        .is_some_and(|b| b <= 0.5 * config.accuracy)
}

/// What the screen saves on an `n × n` matrix in `tile_size` tiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScreenCensus {
    /// Off-diagonal lower tiles the screen stores null unevaluated.
    pub screened: usize,
    /// Kernel evaluations of dense assembly: every entry of every lower
    /// tile the screen leaves.
    pub evaluations: usize,
}

/// Count the tiles [`proven_null`] screens and the entries dense assembly
/// still evaluates.
pub fn screen_census<G: TileGenerator + ?Sized>(
    n: usize,
    tile_size: usize,
    gen: &G,
    config: &CompressionConfig,
) -> ScreenCensus {
    let mut census = ScreenCensus {
        screened: 0,
        evaluations: 0,
    };
    for (i, j, rows, cols) in lower_tiles(n, tile_size) {
        if i != j && proven_null(gen, rows.clone(), cols.clone(), config) {
            census.screened += 1;
        } else {
            census.evaluations += rows.len() * cols.len();
        }
    }
    census
}

/// Every lower tile `(i, j, rows, cols)` of an `n × n` matrix in
/// `tile_size` tiles, in packed row-major order.
pub(crate) fn lower_tiles(
    n: usize,
    tile_size: usize,
) -> impl Iterator<Item = (usize, usize, Range<usize>, Range<usize>)> {
    let nt = n.div_ceil(tile_size);
    let span = move |k: usize| k * tile_size..n.min((k + 1) * tile_size);
    (0..nt).flat_map(move |i| (0..=i).map(move |j| (i, j, span(i), span(j))))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Entries `2^-|i-j|`, with a bound that is exact for single entries.
    struct Decay;

    impl TileGenerator for Decay {
        fn entry(&self, i: usize, j: usize) -> f64 {
            0.5f64.powi(i.abs_diff(j) as i32)
        }
        fn frobenius_bound(&self, rows: Range<usize>, cols: Range<usize>) -> Option<f64> {
            let gap = rows
                .start
                .abs_diff(cols.end - 1)
                .min(cols.start.abs_diff(rows.end - 1));
            Some(((rows.len() * cols.len()) as f64).sqrt() * 0.5f64.powi(gap as i32))
        }
    }

    #[test]
    fn closures_never_bound() {
        let f = |i: usize, j: usize| (i + j) as f64;
        assert_eq!(f.entry(2, 3), 5.0);
        assert_eq!(f.frobenius_bound(0..2, 4..6), None);
        assert!(!proven_null(
            &f,
            0..2,
            4..6,
            &CompressionConfig::with_accuracy(1e9)
        ));
    }

    #[test]
    fn predicate_keeps_a_half_threshold_margin() {
        let cfg = CompressionConfig::with_accuracy(2.0 * 0.5f64.powi(10));
        // A single entry at distance 10 sits exactly at ½·accuracy.
        assert!(proven_null(&Decay, 10..11, 0..1, &cfg));
        assert!(!proven_null(&Decay, 9..10, 0..1, &cfg));
    }

    #[test]
    fn census_counts_screened_tiles_and_ragged_evaluations() {
        // n = 10 in tiles of 4: spans 0..4, 4..8, 8..10.
        let cfg = CompressionConfig::with_accuracy(1e-1);
        let c = screen_census(10, 4, &Decay, &cfg);
        // The farthest tile, (2, 0), has gap 5 and bound √8·2⁻⁵ ≈ 0.088:
        // above ½·0.1, so every entry is evaluated…
        assert_eq!(
            c,
            ScreenCensus {
                screened: 0,
                evaluations: 16 * 3 + 8 * 2 + 4
            }
        );
        // …and below ½·0.2, so its 8 entries are skipped.
        let loose = CompressionConfig::with_accuracy(0.2);
        let c = screen_census(10, 4, &Decay, &loose);
        assert_eq!(
            c,
            ScreenCensus {
                screened: 1,
                evaluations: 16 * 3 + 8 + 4
            }
        );
    }
}
