//! Symmetric TLR matrix container (lower-triangular tile storage).
//!
//! The container matches HiCMA's layout decisions: only the lower triangle
//! of tiles is stored (the matrix is symmetric), diagonal tiles are always
//! dense, off-diagonal tiles are compressed at construction. The last tile
//! row/column may be smaller when the matrix size is not a multiple of the
//! tile size.

use crate::compress::{compress_tile, CompressionConfig};
use crate::generator::{lower_tiles, proven_null, TileGenerator};
use crate::rankstat::RankSnapshot;
use crate::tile::Tile;
use rayon::prelude::*;
use std::ops::Range;
use tlr_linalg::Matrix;

/// A symmetric positive-definite matrix stored as TLR tiles (lower
/// triangle only).
#[derive(Clone)]
pub struct TlrMatrix {
    n: usize,
    tile_size: usize,
    nt: usize,
    /// Lower-triangle tiles in row-major packed order:
    /// index of `(i, j)`, `i ≥ j`, is `i·(i+1)/2 + j`.
    tiles: Vec<Tile>,
}

/// The dense block `gen[rows, cols]`.
fn fill<G: TileGenerator + ?Sized>(gen: &G, rows: Range<usize>, cols: Range<usize>) -> Matrix {
    Matrix::from_fn(rows.len(), cols.len(), |bi, bj| gen.entry(rows.start + bi, cols.start + bj))
}

#[inline]
fn packed_index(i: usize, j: usize) -> usize {
    debug_assert!(i >= j, "only the lower triangle is stored");
    i * (i + 1) / 2 + j
}

impl TlrMatrix {
    /// Build a TLR matrix by sampling a symmetric generator
    /// `gen.entry(row, col)` tile-by-tile and compressing each off-diagonal
    /// tile at the configured accuracy. Tiles are generated and compressed
    /// in parallel on rayon's work-stealing pool — one task per tile, sized
    /// by `available_parallelism` unless `RAYON_NUM_THREADS` overrides it
    /// (this is the paper's "matrix generation + compression" phase,
    /// Fig. 11). Per-tile results are independent of the thread count, so
    /// the assembled matrix is bit-identical at any pool size.
    ///
    /// Off-diagonal tiles the generator proves null ([`proven_null`]) are
    /// stored null without being evaluated; the result is bit-identical to
    /// assembling them (see [`crate::generator`]).
    pub fn from_generator<G: TileGenerator>(
        n: usize,
        tile_size: usize,
        gen: G,
        config: &CompressionConfig,
    ) -> Self {
        Self::assemble(n, tile_size, &gen, config, |rows, cols| {
            let block = fill(&gen, rows, cols);
            (compress_tile(block, config), 0)
        })
        .0
    }

    /// Build from an explicit dense matrix (testing/small problems).
    pub fn from_dense(a: &Matrix, tile_size: usize, config: &CompressionConfig) -> Self {
        assert_eq!(a.rows(), a.cols(), "TLR matrices are square/symmetric");
        Self::from_generator(a.rows(), tile_size, |i, j| a[(i, j)], config)
    }

    /// Build the matrix **directly in compressed format** via adaptive
    /// cross approximation — the paper's §IX future work: off-diagonal
    /// tiles are assembled from `O(k·b)` kernel evaluations instead of
    /// `b²`, skipping the dense-generation phase that dominates Fig. 11.
    /// Tiles the generator proves null are skipped exactly as in
    /// [`TlrMatrix::from_generator`], so both paths agree on them.
    ///
    /// Returns the matrix and the total number of kernel evaluations
    /// spent (compare against [`crate::screen_census`]'s `evaluations` for
    /// the dense path).
    pub fn from_generator_aca<G: TileGenerator>(
        n: usize,
        tile_size: usize,
        gen: G,
        config: &CompressionConfig,
    ) -> (Self, usize) {
        Self::assemble(n, tile_size, &gen, config, |rows, cols| {
            let res = crate::aca::aca_compress(
                rows.len(),
                cols.len(),
                |bi, bj| gen.entry(rows.start + bi, cols.start + bj),
                config,
            );
            (res.tile, res.evaluations)
        })
    }

    /// The assembly loop shared by both paths: diagonal tiles are filled
    /// dense, proven-null tiles are stored null, and every other tile is
    /// built by `off_diagonal`, which also reports its kernel evaluations.
    fn assemble<G, B>(
        n: usize,
        tile_size: usize,
        gen: &G,
        config: &CompressionConfig,
        off_diagonal: B,
    ) -> (Self, usize)
    where
        G: TileGenerator,
        B: Fn(Range<usize>, Range<usize>) -> (Tile, usize) + Sync,
    {
        assert!(n > 0 && tile_size > 0, "matrix and tile size must be positive");
        let nt = n.div_ceil(tile_size);
        let coords: Vec<_> = lower_tiles(n, tile_size).collect();
        let results: Vec<(Tile, usize)> = coords
            .par_iter()
            .map(|(i, j, rows, cols)| {
                let (rows, cols) = (rows.clone(), cols.clone());
                if i == j {
                    let evals = rows.len() * cols.len();
                    (Tile::Dense(fill(gen, rows, cols)), evals)
                } else if proven_null(gen, rows.clone(), cols.clone(), config) {
                    (Tile::Null { rows: rows.len(), cols: cols.len() }, 0)
                } else {
                    off_diagonal(rows, cols)
                }
            })
            .collect();
        let evaluations = results.iter().map(|(_, e)| e).sum();
        let tiles = results.into_iter().map(|(t, _)| t).collect();
        (Self { n, tile_size, nt, tiles }, evaluations)
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Tile size `b`.
    pub fn tile_size(&self) -> usize {
        self.tile_size
    }

    /// Number of tile rows/columns `NT`.
    pub fn nt(&self) -> usize {
        self.nt
    }

    /// Row count of tile row `i` (the last row may be short).
    pub fn tile_rows(&self, i: usize) -> usize {
        self.tile_size.min(self.n - i * self.tile_size)
    }

    /// Borrow tile `(i, j)`, `i ≥ j`.
    pub fn tile(&self, i: usize, j: usize) -> &Tile {
        &self.tiles[packed_index(i, j)]
    }

    /// Mutably borrow tile `(i, j)`, `i ≥ j`.
    pub fn tile_mut(&mut self, i: usize, j: usize) -> &mut Tile {
        &mut self.tiles[packed_index(i, j)]
    }

    /// Mutably borrow three distinct tiles at once — the GEMM update
    /// signature `C[m][n] −= A[m][k] · A[n][k]ᵀ` needs `(m,k)`, `(n,k)`
    /// read-only and `(m,n)` mutable; this helper hands out the mutable
    /// one while the caller clones/borrows the read tiles first.
    pub fn take_tile(&mut self, i: usize, j: usize) -> Tile {
        std::mem::replace(&mut self.tiles[packed_index(i, j)], Tile::Null { rows: 0, cols: 0 })
    }

    /// Put a tile back after [`TlrMatrix::take_tile`].
    pub fn put_tile(&mut self, i: usize, j: usize, t: Tile) {
        self.tiles[packed_index(i, j)] = t;
    }

    /// Mean absolute value of the matrix diagonal — the natural scale for
    /// a regularizing shift `A + εI` (diagonal tiles are always dense).
    pub fn diagonal_mean_abs(&self) -> f64 {
        let mut sum = 0.0;
        for k in 0..self.nt {
            if let Tile::Dense(m) = self.tile(k, k) {
                for d in 0..m.rows().min(m.cols()) {
                    sum += m[(d, d)].abs();
                }
            }
        }
        sum / self.n.max(1) as f64
    }

    /// Add `shift` to every diagonal entry (`A ← A + shift·I`), the
    /// classic regularization retry for a borderline-indefinite matrix.
    pub fn shift_diagonal(&mut self, shift: f64) {
        for k in 0..self.nt {
            if let Tile::Dense(m) = self.tile_mut(k, k) {
                for d in 0..m.rows().min(m.cols()) {
                    m[(d, d)] += shift;
                }
            }
        }
    }

    /// Density = non-null off-diagonal lower tiles / total off-diagonal
    /// lower tiles (the paper's metric; sparsity = 1 − density).
    pub fn density(&self) -> f64 {
        if self.nt <= 1 {
            return 1.0;
        }
        let mut nonzero = 0usize;
        let mut total = 0usize;
        for i in 0..self.nt {
            for j in 0..i {
                total += 1;
                if !self.tile(i, j).is_null() {
                    nonzero += 1;
                }
            }
        }
        nonzero as f64 / total as f64
    }

    /// Snapshot of the current rank of every lower tile (diagonal tiles
    /// report `min(rows, cols)`).
    pub fn rank_snapshot(&self) -> RankSnapshot {
        let mut ranks = vec![0usize; self.nt * self.nt];
        for i in 0..self.nt {
            for j in 0..=i {
                ranks[i * self.nt + j] = self.tile(i, j).rank();
            }
        }
        RankSnapshot::new(self.nt, self.tile_size, ranks)
    }

    /// Total storage in `f64` words (the paper's memory-footprint metric).
    pub fn memory_f64(&self) -> usize {
        self.tiles.iter().map(Tile::memory_f64).sum()
    }

    /// Materialize the full symmetric dense matrix (testing / small N).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.n, self.n);
        for i in 0..self.nt {
            for j in 0..=i {
                let block = self.tile(i, j).to_dense();
                out.set_submatrix(i * self.tile_size, j * self.tile_size, &block);
                if i != j {
                    let bt = block.transpose();
                    out.set_submatrix(j * self.tile_size, i * self.tile_size, &bt);
                }
            }
        }
        out
    }

    /// Materialize only the lower triangle (for factored matrices, where
    /// the upper triangle is not meaningful).
    pub fn to_dense_lower(&self) -> Matrix {
        let mut out = Matrix::zeros(self.n, self.n);
        for i in 0..self.nt {
            for j in 0..=i {
                let block = self.tile(i, j).to_dense();
                out.set_submatrix(i * self.tile_size, j * self.tile_size, &block);
            }
        }
        for j in 0..self.n {
            for i in 0..j {
                out[(i, j)] = 0.0;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlr_linalg::norms::relative_diff;

    /// A smooth SPD generator: Gaussian kernel on a 1D grid + diagonal
    /// regularization. Mimics the structure of RBF matrices.
    fn gaussian_gen(n: usize) -> impl Fn(usize, usize) -> f64 + Sync {
        move |i: usize, j: usize| {
            let d = (i as f64 - j as f64) / (n as f64 / 16.0);
            let v = (-d * d).exp();
            if i == j {
                v + 1e-2
            } else {
                v
            }
        }
    }

    #[test]
    fn construction_and_shapes() {
        let n = 100;
        let b = 32; // 100 = 32+32+32+4 → nt = 4, last tile 4
        let cfg = CompressionConfig::with_accuracy(1e-6);
        let m = TlrMatrix::from_generator(n, b, gaussian_gen(n), &cfg);
        assert_eq!(m.nt(), 4);
        assert_eq!(m.tile_rows(0), 32);
        assert_eq!(m.tile_rows(3), 4);
        assert_eq!(m.tile(3, 3).rows(), 4);
        assert_eq!(m.tile(3, 0).rows(), 4);
        assert_eq!(m.tile(3, 0).cols(), 32);
    }

    #[test]
    fn reconstruction_error_within_threshold() {
        let n = 96;
        let b = 24;
        let gen = gaussian_gen(n);
        let dense = Matrix::from_fn(n, n, &gen);
        for acc in [1e-3, 1e-6, 1e-9] {
            let cfg = CompressionConfig::with_accuracy(acc);
            let m = TlrMatrix::from_dense(&dense, b, &cfg);
            let err = relative_diff(&m.to_dense(), &dense);
            // NT² tiles each at most `acc` off in Frobenius norm.
            let bound = acc * (m.nt() * m.nt()) as f64;
            assert!(err * tlr_linalg::frobenius_norm(&dense) <= bound.max(1e-12) * 10.0,
                "acc={acc} err={err}");
        }
    }

    #[test]
    fn far_tiles_compress_harder() {
        let n = 128;
        let b = 16;
        let cfg = CompressionConfig::with_accuracy(1e-6);
        let m = TlrMatrix::from_generator(n, b, gaussian_gen(n), &cfg);
        // rank decays with distance to the diagonal
        let near = m.tile(1, 0).rank();
        let far = m.tile(7, 0).rank();
        assert!(far <= near, "near={near} far={far}");
        assert!(m.tile(7, 0).is_null(), "far tile should vanish");
    }

    #[test]
    fn density_between_zero_and_one() {
        let n = 128;
        let cfg = CompressionConfig::with_accuracy(1e-6);
        let m = TlrMatrix::from_generator(n, 16, gaussian_gen(n), &cfg);
        let d = m.density();
        assert!(d > 0.0 && d < 1.0, "density {d}");
    }

    #[test]
    fn snapshot_matches_tiles() {
        let n = 64;
        let cfg = CompressionConfig::with_accuracy(1e-6);
        let m = TlrMatrix::from_generator(n, 16, gaussian_gen(n), &cfg);
        let snap = m.rank_snapshot();
        assert_eq!(snap.rank(2, 1), m.tile(2, 1).rank());
        assert_eq!(snap.rank(3, 3), 16);
    }

    #[test]
    fn take_put_roundtrip() {
        let n = 64;
        let cfg = CompressionConfig::with_accuracy(1e-6);
        let mut m = TlrMatrix::from_generator(n, 16, gaussian_gen(n), &cfg);
        let before = m.tile(2, 1).to_dense();
        let t = m.take_tile(2, 1);
        m.put_tile(2, 1, t);
        assert!(relative_diff(&m.tile(2, 1).to_dense(), &before) < 1e-15);
    }

    #[test]
    fn memory_less_than_dense() {
        let n = 256;
        let cfg = CompressionConfig::with_accuracy(1e-5);
        let m = TlrMatrix::from_generator(n, 32, gaussian_gen(n), &cfg);
        // lower-triangle dense storage would be ~ n(n+1)/2
        assert!(m.memory_f64() < n * (n + 1) / 2);
    }
}
